// Package hashfn implements the hash functions used by the paper's
// profiling architectures (§5.3).
//
// For a tuple <pc, value> the index into a 2^bits-entry table is
//
//	npc   = flip(randomize(pc))
//	nv    = randomize(value)
//	index = xorfold(npc ^ nv, bits)
//
// where randomize substitutes every byte through a 256-entry random byte
// table (magnifying the small variation between temporally close PCs and
// values), flip reverses the byte order (moving PC variation into the high
// bytes so it survives the xor with value), and xorfold xors fixed-width
// chunks of the 64-bit word down to the index width.
//
// The multi-hash architecture needs several independent hash functions; as
// in the paper, independence comes from giving each function its own random
// byte tables (Family).
package hashfn

import (
	"fmt"
	"math/bits"

	"hwprof/internal/event"
	"hwprof/internal/xrand"
)

// Func is one hardwired hash function: two 256-entry random byte tables
// (one per tuple member, so pc and value randomize independently) plus an
// index width.
//
// For speed, the whole recipe is folded into per-byte-lane contribution
// tables at construction. Input byte i of A contributes tabA[b] at output
// lane 7−i (randomize then flip), and input byte i of B contributes
// tabB[b] at lane i; because xorfold distributes over xor, each
// contribution is further pre-folded down to the index width. Index is
// then sixteen uint32 table loads xored together — already masked, no
// fold loop at runtime, and half the table footprint of 64-bit
// contributions. This is the same dataflow the paper's hardwired hash
// would realize in silicon.
type Func struct {
	tabA [256]byte
	tabB [256]byte

	foldA [8][256]uint32
	foldB [8][256]uint32

	bits uint
	mask uint64
}

// New returns a hash function for tables of size 2^indexBits, with byte
// tables filled deterministically from seed. indexBits must be in [0, 32];
// width 0 describes a degenerate single-bucket table (every tuple indexes
// entry 0), which exists so tests can force total aliasing.
func New(seed uint64, indexBits uint) (*Func, error) {
	if indexBits > 32 {
		return nil, fmt.Errorf("hashfn: index width %d out of range [0,32]", indexBits)
	}
	f := &Func{bits: indexBits, mask: (1 << indexBits) - 1}
	r := xrand.New(seed)
	fillByteTable(&f.tabA, r)
	fillByteTable(&f.tabB, r)
	if indexBits == 0 {
		return f, nil // all contributions fold to 0: every tuple indexes entry 0
	}
	for lane := 0; lane < 8; lane++ {
		for b := 0; b < 256; b++ {
			contribA := uint64(f.tabA[b]) << (8 * (7 - lane))
			contribB := uint64(f.tabB[b]) << (8 * lane)
			f.foldA[lane][b] = uint32(xorfold(contribA, indexBits))
			f.foldB[lane][b] = uint32(xorfold(contribB, indexBits))
		}
	}
	return f, nil
}

// fillByteTable fills tab with a random permutation of 0..255. Using a
// permutation (rather than independent random bytes) guarantees the
// per-byte substitution is bijective, so randomize never loses entropy.
func fillByteTable(tab *[256]byte, r *xrand.Rand) {
	for i := range tab {
		tab[i] = byte(i)
	}
	r.Shuffle(256, func(i, j int) { tab[i], tab[j] = tab[j], tab[i] })
}

// Size returns the table size the function indexes into (2^indexBits).
func (f *Func) Size() int { return 1 << f.bits }

// randomize substitutes each byte of v through tab, composing the
// substituted bytes back in place.
func randomize(v uint64, tab *[256]byte) uint64 {
	var out uint64
	for i := 0; i < 8; i++ {
		b := byte(v >> (8 * i))
		out |= uint64(tab[b]) << (8 * i)
	}
	return out
}

// flip reverses the bytes of v (the paper's flip operation).
func flip(v uint64) uint64 { return bits.ReverseBytes64(v) }

// xorfold xors the n-bit chunks of v together to produce an n-bit value.
func xorfold(v uint64, n uint) uint64 {
	mask := uint64(1)<<n - 1
	var out uint64
	for v != 0 {
		out ^= v & mask
		v >>= n
	}
	return out
}

// Index returns the table index for tuple t. The contributions are
// pre-folded and pre-masked, so this is sixteen loads and fifteen xors.
func (f *Func) Index(t event.Tuple) uint32 {
	a, b := t.A, t.B
	return f.foldA[0][byte(a)] ^ f.foldB[0][byte(b)] ^
		f.foldA[1][byte(a>>8)] ^ f.foldB[1][byte(b>>8)] ^
		f.foldA[2][byte(a>>16)] ^ f.foldB[2][byte(b>>16)] ^
		f.foldA[3][byte(a>>24)] ^ f.foldB[3][byte(b>>24)] ^
		f.foldA[4][byte(a>>32)] ^ f.foldB[4][byte(b>>32)] ^
		f.foldA[5][byte(a>>40)] ^ f.foldB[5][byte(b>>40)] ^
		f.foldA[6][byte(a>>48)] ^ f.foldB[6][byte(b>>48)] ^
		f.foldA[7][byte(a>>56)] ^ f.foldB[7][byte(b>>56)]
}

// indexSlow is the literal transcription of the paper's recipe, kept as
// the reference implementation for the equivalence test.
func (f *Func) indexSlow(t event.Tuple) uint32 {
	if f.bits == 0 {
		return 0
	}
	npc := flip(randomize(t.A, &f.tabA))
	nv := randomize(t.B, &f.tabB)
	return uint32(xorfold(npc^nv, f.bits) & f.mask)
}

// Family is a set of independent hash functions with a common index width,
// one per hash table of a multi-hash profiler.
type Family struct {
	funcs []*Func
}

// NewFamily returns n independent hash functions of the given index width,
// derived deterministically from seed. Each function gets distinct random
// byte tables, which is how the paper obtains independence.
func NewFamily(seed uint64, n int, indexBits uint) (*Family, error) {
	if n < 1 {
		return nil, fmt.Errorf("hashfn: family size %d must be >= 1", n)
	}
	sm := seed
	funcs := make([]*Func, n)
	for i := range funcs {
		f, err := New(xrand.SplitMix64(&sm), indexBits)
		if err != nil {
			return nil, err
		}
		funcs[i] = f
	}
	return &Family{funcs: funcs}, nil
}

// Len returns the number of functions in the family.
func (fam *Family) Len() int { return len(fam.funcs) }

// Func returns the i-th function.
func (fam *Family) Func(i int) *Func { return fam.funcs[i] }

// fusedFieldBits is the per-function field width inside a Fused table
// word: 16 bits per index, so a uint64 word carries up to 4 functions.
const fusedFieldBits = 16

// FusedMask extracts one index field from a Fused packed word.
const FusedMask = uint64(1)<<fusedFieldBits - 1

// Fused evaluates every function of a small family in one table pass.
//
// Each function's pre-folded per-lane contributions occupy a disjoint
// 16-bit field of a shared uint64 contribution word; because xor acts on
// the fields independently, sixteen loads from the fused tables compute
// all n indexes simultaneously — exactly as the n hardwired hash units of
// the paper's multi-hash design share their input bytes and evaluate in
// parallel. Against n separate Func evaluations this divides both the
// load count and the hot table footprint by n (the fused tables total
// 32 KB regardless of n).
type Fused struct {
	tabA [8][256]uint64
	tabB [8][256]uint64
	n    int
}

// Fuse returns a fused evaluator for the family, or ok == false when the
// family does not fit one (more than 4 functions, index width over 16
// bits, or the degenerate width 0).
func (fam *Family) Fuse() (*Fused, bool) {
	n := len(fam.funcs)
	if n > 4 {
		return nil, false
	}
	bits := fam.funcs[0].bits
	if bits == 0 || bits > fusedFieldBits {
		return nil, false
	}
	fu := &Fused{n: n}
	for lane := 0; lane < 8; lane++ {
		for b := 0; b < 256; b++ {
			var a64, b64 uint64
			for i, f := range fam.funcs {
				a64 |= uint64(f.foldA[lane][b]) << (fusedFieldBits * i)
				b64 |= uint64(f.foldB[lane][b]) << (fusedFieldBits * i)
			}
			fu.tabA[lane][b] = a64
			fu.tabB[lane][b] = b64
		}
	}
	return fu, true
}

// Len returns the number of packed index fields.
func (fu *Fused) Len() int { return fu.n }

// Packed returns all n indexes of t in one word: function i's index is
// (Packed >> (16*i)) & FusedMask. Fields are pre-masked to the family's
// index width.
func (fu *Fused) Packed(t event.Tuple) uint64 {
	a, b := t.A, t.B
	return fu.tabA[0][byte(a)] ^ fu.tabB[0][byte(b)] ^
		fu.tabA[1][byte(a>>8)] ^ fu.tabB[1][byte(b>>8)] ^
		fu.tabA[2][byte(a>>16)] ^ fu.tabB[2][byte(b>>16)] ^
		fu.tabA[3][byte(a>>24)] ^ fu.tabB[3][byte(b>>24)] ^
		fu.tabA[4][byte(a>>32)] ^ fu.tabB[4][byte(b>>32)] ^
		fu.tabA[5][byte(a>>40)] ^ fu.tabB[5][byte(b>>40)] ^
		fu.tabA[6][byte(a>>48)] ^ fu.tabB[6][byte(b>>48)] ^
		fu.tabA[7][byte(a>>56)] ^ fu.tabB[7][byte(b>>56)]
}

// Indexes computes the index of t under every function in the family,
// appending into dst to avoid allocation on the hot path.
func (fam *Family) Indexes(t event.Tuple, dst []uint32) []uint32 {
	for _, f := range fam.funcs {
		dst = append(dst, f.Index(t))
	}
	return dst
}

// NaiveFunc is a deliberately weak hash used only by the hash-quality
// ablation bench: it xors the low halves of the tuple members and truncates.
// It preserves arithmetic structure in the inputs, which is exactly what
// the paper's randomize step exists to destroy.
type NaiveFunc struct {
	mask uint64
}

// NewNaive returns a NaiveFunc for tables of size 2^indexBits.
func NewNaive(indexBits uint) *NaiveFunc {
	return &NaiveFunc{mask: uint64(1)<<indexBits - 1}
}

// Index returns (A ^ B) mod table size.
func (f *NaiveFunc) Index(t event.Tuple) uint32 {
	return uint32((t.A ^ t.B) & f.mask)
}

// Indexer is anything that can map a tuple to one index per hash table.
// Family is the production implementation; WeakFamily exists for the
// hash-quality ablation.
type Indexer interface {
	Len() int
	Indexes(t event.Tuple, dst []uint32) []uint32
}

var _ Indexer = (*Family)(nil)

// WeakFamily is a family of structure-preserving hash functions (shifted
// xors with no randomize step), used to measure how much the paper's
// table-based hash buys. Its n functions differ only by shift, so
// structured tuples collide in correlated ways across tables.
type WeakFamily struct {
	n    int
	mask uint64
}

// NewWeakFamily returns n weak functions of the given index width.
func NewWeakFamily(n int, indexBits uint) (*WeakFamily, error) {
	if n < 1 {
		return nil, fmt.Errorf("hashfn: weak family size %d must be >= 1", n)
	}
	if indexBits > 32 {
		return nil, fmt.Errorf("hashfn: index width %d out of range [0,32]", indexBits)
	}
	return &WeakFamily{n: n, mask: uint64(1)<<indexBits - 1}, nil
}

// Len returns the number of functions.
func (w *WeakFamily) Len() int { return w.n }

// Indexes appends each function's index for t into dst.
func (w *WeakFamily) Indexes(t event.Tuple, dst []uint32) []uint32 {
	for i := 0; i < w.n; i++ {
		v := (t.A >> 2) ^ t.B ^ (t.A >> (7 + uint(i)*3)) ^ t.B>>uint(i)
		dst = append(dst, uint32(v&w.mask))
	}
	return dst
}

var _ Indexer = (*WeakFamily)(nil)

// Package event defines the profiling-event model shared by every profiler,
// workload generator and trace codec in this repository.
//
// Following the paper (§3, "Creating Unique Names for Profiling Events"), a
// profiling event is named by a tuple: a pair of 64-bit values that uniquely
// identifies the event. For load-value profiling the tuple is
// <loadPC, value>; for branch-edge profiling it is <branchPC, targetPC>.
// Profilers never interpret the two halves — they only hash and compare
// them — so the same machinery serves any tuple-based profile.
package event

import "hwprof/internal/xrand"

// Kind labels what the two halves of a tuple mean. It has no effect on
// profiler behaviour; it exists so tools and trace files can carry the
// interpretation along with the data.
type Kind uint8

// The tuple kinds used by the paper's two evaluations, plus a generic kind
// for other applications (e.g. network flow accounting).
const (
	// KindValue is load-value profiling: <loadPC, loadedValue>.
	KindValue Kind = iota
	// KindEdge is branch-edge profiling: <branchPC, targetPC>.
	KindEdge
	// KindGeneric is any other two-variable event.
	KindGeneric
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindValue:
		return "value"
	case KindEdge:
		return "edge"
	case KindGeneric:
		return "generic"
	default:
		return "unknown"
	}
}

// Tuple uniquely names one profiling event: a pair of values such as
// <loadPC, value> or <branchPC, targetPC>. Tuples are comparable and
// therefore usable as map keys, which the perfect profiler relies on.
type Tuple struct {
	// A is the first member, conventionally a program counter.
	A uint64
	// B is the second member, conventionally a value or target address.
	B uint64
}

// Combine names an event made of more than two variables as a Tuple, the
// extension §3 of the paper sketches ("it can easily be extended to create
// unique names for events with multiple variables"). The first variable —
// conventionally the PC — is kept verbatim in A; the remaining variables
// are folded into B with a strong 64-bit mixer, so distinct combinations
// collide in B with probability ~2⁻⁶⁴. With one variable, B is zero; with
// exactly two, Combine degenerates to Tuple{A, B} so two-variable events
// keep their literal names.
func Combine(vars ...uint64) Tuple {
	switch len(vars) {
	case 0:
		return Tuple{}
	case 1:
		return Tuple{A: vars[0]}
	case 2:
		return Tuple{A: vars[0], B: vars[1]}
	}
	// splitmix-style chained fold over the tail variables
	acc := uint64(0x9e3779b97f4a7c15)
	for _, v := range vars[1:] {
		acc ^= v + 0x9e3779b97f4a7c15 + (acc << 6) + (acc >> 2)
		acc = xrand.Mix64(acc)
	}
	return Tuple{A: vars[0], B: acc}
}

// Nexter is the minimal pull surface of an event stream: Next returns the
// next tuple and whether one was available. It exists so error-free
// producers (fixed slices, closures in tests) can be written without an
// Err method and lifted into full Sources with FromNexter.
type Nexter interface {
	Next() (t Tuple, ok bool)
}

// Source is a stream of profiling events. Next returns the next tuple in
// the stream and whether one was available; ok == false means the stream
// ended — either exhausted or failed. Err distinguishes the two: it
// returns nil after a clean end of stream and the terminal error after a
// failure (I/O error, truncated trace, trapped interpreter). Err must be
// sticky — once non-nil it keeps returning the same error and Next keeps
// returning ok == false.
//
// Implementations are typically deterministic generators (internal/synth),
// instrumented interpreters (internal/vm) or trace-file readers
// (internal/trace). Error-free producers can implement just Nexter and be
// adapted with FromNexter.
type Source interface {
	Nexter
	Err() error
}

// DefaultBatchSize is the batch length used by the batched drivers when the
// caller does not choose one. 512 tuples (8 KB) is large enough to amortize
// per-call overhead to noise yet small enough to stay resident in L1.
const DefaultBatchSize = 512

// BatchSource is the bulk counterpart of Source: NextBatch fills buf with
// up to len(buf) consecutive tuples of the stream and returns how many were
// written. A return of 0 means the stream ended (implementations must not
// return 0 for a non-empty buf unless they are done); as with Source, Err
// reports whether the end was clean or a failure, and a short (partial)
// batch is legal at any time. Producers that can fill a slice in one pass
// (slices, trace readers, generators) implement it directly; everything
// else goes through Batched.
type BatchSource interface {
	NextBatch(buf []Tuple) int
	Err() error
}

// nexterSource lifts an error-free Nexter into a Source whose Err is
// always nil.
type nexterSource struct{ n Nexter }

func (s nexterSource) Next() (Tuple, bool) { return s.n.Next() }
func (s nexterSource) Err() error          { return nil }

// FromNexter adapts an error-free event producer into a Source: its Err is
// permanently nil, so end of stream always reads as clean. Producers that
// already satisfy Source are returned unchanged, which makes FromNexter a
// safe compatibility shim around any pre-existing stream type.
func FromNexter(n Nexter) Source {
	if s, ok := n.(Source); ok {
		return s
	}
	return nexterSource{n}
}

// batchAdapter lifts a plain Source to a BatchSource one Next at a time.
type batchAdapter struct{ src Source }

func (a batchAdapter) Next() (Tuple, bool) { return a.src.Next() }

func (a batchAdapter) Err() error { return a.src.Err() }

func (a batchAdapter) NextBatch(buf []Tuple) int {
	for i := range buf {
		t, ok := a.src.Next()
		if !ok {
			return i
		}
		buf[i] = t
	}
	return len(buf)
}

// Batched returns a BatchSource view of src. Sources that already implement
// BatchSource are returned as-is; anything else is wrapped in an adapter
// that loops Next, so the batch path is always available even if only the
// per-call overhead above the source is amortized.
func Batched(src Source) BatchSource {
	if b, ok := src.(BatchSource); ok {
		return b
	}
	return batchAdapter{src}
}

// SliceSource adapts a slice of tuples into a Source. It is the simplest
// Source and is used heavily in tests.
type SliceSource struct {
	tuples []Tuple
	pos    int
}

// NewSliceSource returns a Source that yields the given tuples in order.
// The slice is not copied; the caller must not mutate it while reading.
func NewSliceSource(tuples []Tuple) *SliceSource {
	return &SliceSource{tuples: tuples}
}

// Err always returns nil: a slice cannot fail.
func (s *SliceSource) Err() error { return nil }

// Next returns the next tuple in the underlying slice.
func (s *SliceSource) Next() (Tuple, bool) {
	if s.pos >= len(s.tuples) {
		return Tuple{}, false
	}
	t := s.tuples[s.pos]
	s.pos++
	return t, true
}

// NextBatch copies up to len(buf) tuples of the remaining slice into buf in
// one pass, making SliceSource the canonical zero-overhead BatchSource.
func (s *SliceSource) NextBatch(buf []Tuple) int {
	n := copy(buf, s.tuples[s.pos:])
	s.pos += n
	return n
}

// Len returns the number of tuples not yet yielded.
func (s *SliceSource) Len() int { return len(s.tuples) - s.pos }

// Reset rewinds the source to the beginning of the slice.
func (s *SliceSource) Reset() { s.pos = 0 }

// FuncSource adapts a function into a Source. The function cannot report
// errors; a stream that can fail should implement Source directly.
type FuncSource func() (Tuple, bool)

// Next invokes the wrapped function.
func (f FuncSource) Next() (Tuple, bool) { return f() }

// Err always returns nil; FuncSource streams end only cleanly.
func (f FuncSource) Err() error { return nil }

// limited bounds a source while preserving its batch capability, so Limit
// does not knock a stream off the fast path.
type limited struct {
	src       Source
	batch     BatchSource // Batched(src), resolved once
	remaining uint64
}

func (l *limited) Next() (Tuple, bool) {
	if l.remaining == 0 {
		return Tuple{}, false
	}
	l.remaining--
	return l.src.Next()
}

// Err reports the wrapped source's error: hitting the limit is a clean
// end, but an underlying failure is still visible through the wrapper.
func (l *limited) Err() error { return l.src.Err() }

func (l *limited) NextBatch(buf []Tuple) int {
	if l.remaining == 0 {
		return 0
	}
	if uint64(len(buf)) > l.remaining {
		buf = buf[:l.remaining]
	}
	n := l.batch.NextBatch(buf)
	l.remaining -= uint64(n)
	return n
}

// Limit wraps src so that at most n tuples are produced. The result is a
// BatchSource whenever that helps: batch reads delegate to src's own
// NextBatch when it has one.
func Limit(src Source, n uint64) Source {
	return &limited{src: src, batch: Batched(src), remaining: n}
}

// concatenated yields each source's stream in turn, stopping at the first
// source that fails so an error never silently splices two streams.
type concatenated struct {
	sources []Source
	i       int
}

func (c *concatenated) Next() (Tuple, bool) {
	for c.i < len(c.sources) {
		if t, ok := c.sources[c.i].Next(); ok {
			return t, true
		}
		if c.sources[c.i].Err() != nil {
			return Tuple{}, false
		}
		c.i++
	}
	return Tuple{}, false
}

func (c *concatenated) Err() error {
	if c.i < len(c.sources) {
		return c.sources[c.i].Err()
	}
	return nil
}

// Concat returns a Source that yields all tuples of each source in turn.
// A source that ends with an error ends the concatenated stream there, and
// Err reports that error.
func Concat(sources ...Source) Source {
	return &concatenated{sources: sources}
}

// Collect drains src into a slice, up to max tuples (max == 0 means no
// bound). It is a convenience for tests and small tools, not for the
// million-event experiment streams.
func Collect(src Source, max int) []Tuple {
	var out []Tuple
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		t, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

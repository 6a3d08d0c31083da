// Package faultinject provides composable fault injectors for the
// profiling pipeline: sources that fail, stall or panic at configurable
// points, io.Readers that cut streams short or corrupt them (for the trace
// layer), and shard-worker hooks that detonate inside the engine's own
// goroutines. The chaos tests build on these to assert that the engine
// degrades gracefully — faults surface as returned errors, never as
// crashed processes, leaked goroutines or deadlocks.
//
// Everything here is deterministic: faults fire at exact operation counts,
// not probabilities, so a chaos test that fails reproduces exactly.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"hwprof/internal/event"
)

// ErrInjected is the default error delivered by injectors that are not
// given a specific one. Chaos tests match it with errors.Is to confirm the
// error the pipeline reports is the injected fault, not a side effect.
var ErrInjected = errors.New("faultinject: injected fault")

// FailingSource yields the wrapped source's stream until After events have
// been delivered, then ends the stream with a sticky error — the model of
// a mid-stream I/O failure in a trace-backed source. It implements both
// event.Source and event.BatchSource; batch reads shrink to the events
// remaining before the fault, so it also exercises short-read handling.
type FailingSource struct {
	Inner event.Source
	After uint64 // events delivered before the failure
	Cause error  // error to report; nil selects ErrInjected

	delivered uint64
	err       error
}

// Next returns the next event until the configured failure point.
func (s *FailingSource) Next() (event.Tuple, bool) {
	if s.err != nil {
		return event.Tuple{}, false
	}
	if s.delivered >= s.After {
		s.trip()
		return event.Tuple{}, false
	}
	tp, ok := s.Inner.Next()
	if !ok {
		s.err = s.Inner.Err()
		return event.Tuple{}, false
	}
	s.delivered++
	return tp, true
}

// NextBatch fills buf up to the failure point: batches shrink as the fault
// approaches and the read after the last event returns 0 with Err set.
func (s *FailingSource) NextBatch(buf []event.Tuple) int {
	if s.err != nil {
		return 0
	}
	if remaining := s.After - s.delivered; uint64(len(buf)) > remaining {
		buf = buf[:remaining]
	}
	if len(buf) == 0 {
		s.trip()
		return 0
	}
	n := event.Batched(s.Inner).NextBatch(buf)
	s.delivered += uint64(n)
	if n == 0 {
		s.err = s.Inner.Err()
	}
	return n
}

func (s *FailingSource) trip() {
	if s.Cause != nil {
		s.err = s.Cause
		return
	}
	s.err = fmt.Errorf("%w: source failed after %d events", ErrInjected, s.delivered)
}

// Err reports the injected (or inherited) stream failure.
func (s *FailingSource) Err() error { return s.err }

// PanickingSource panics on the Next call after After events — the model
// of a source whose internal state is corrupted outright rather than
// failing cleanly.
type PanickingSource struct {
	Inner event.Source
	After uint64

	delivered uint64
}

// Next panics once After events have been delivered.
func (s *PanickingSource) Next() (event.Tuple, bool) {
	if s.delivered >= s.After {
		panic(fmt.Sprintf("faultinject: source panic after %d events", s.delivered))
	}
	tp, ok := s.Inner.Next()
	if ok {
		s.delivered++
	}
	return tp, ok
}

// Err delegates to the wrapped source; the panic never gets this far.
func (s *PanickingSource) Err() error { return s.Inner.Err() }

// SlowSource delays every Every-th event by Delay — enough to hold a
// stream mid-interval so cancellation and deadline paths can be exercised
// deterministically.
type SlowSource struct {
	Inner event.Source
	Every uint64
	Delay time.Duration

	n uint64
}

// Next forwards to the wrapped source, sleeping first on every Every-th
// call.
func (s *SlowSource) Next() (event.Tuple, bool) {
	s.n++
	if s.Every > 0 && s.n%s.Every == 0 {
		time.Sleep(s.Delay)
	}
	return s.Inner.Next()
}

// Err delegates to the wrapped source.
func (s *SlowSource) Err() error { return s.Inner.Err() }

// FailingReader reads from R until After bytes have been delivered, then
// returns Cause (ErrInjected if nil) — a device-level I/O failure beneath
// the trace reader.
type FailingReader struct {
	R     io.Reader
	After int64
	Cause error

	read int64
}

// Read delivers bytes until the failure point.
func (f *FailingReader) Read(p []byte) (int, error) {
	if f.read >= f.After {
		if f.Cause != nil {
			return 0, f.Cause
		}
		return 0, fmt.Errorf("%w: read failed after %d bytes", ErrInjected, f.read)
	}
	if remaining := f.After - f.read; int64(len(p)) > remaining {
		p = p[:remaining]
	}
	n, err := f.R.Read(p)
	f.read += int64(n)
	return n, err
}

// PanicWorkerHook returns a shard.Config.WorkerHook that panics exactly
// once, on the n-th batch (1-based) handled across all shards. The counter
// is atomic: hooks run concurrently in every shard's worker goroutine.
func PanicWorkerHook(n uint64) func(shard int, batch []event.Tuple) {
	var count atomic.Uint64
	return func(shard int, batch []event.Tuple) {
		if count.Add(1) == n {
			panic(fmt.Sprintf("faultinject: worker panic in shard %d on batch %d", shard, n))
		}
	}
}

// SlowWorkerHook returns a shard.Config.WorkerHook that sleeps for d on
// every batch of one shard, modeling a straggler that backs up its queue
// while the other shards run ahead.
func SlowWorkerHook(shard int, d time.Duration) func(shard int, batch []event.Tuple) {
	return func(s int, batch []event.Tuple) {
		if s == shard {
			time.Sleep(d)
		}
	}
}

// HangupConn wraps a net.Conn and cuts it after exactly After bytes have
// been written through it — the model of a connection dropped mid-frame.
// The write that crosses the threshold is delivered partially, then the
// underlying connection is closed and every further operation fails. Like
// the sources above, the fault fires at an exact byte count, so a chaos
// run that trips a bug reproduces exactly. The write side must be a single
// goroutine (the wire protocol's own contract).
type HangupConn struct {
	net.Conn
	After int64 // bytes written before the hangup

	written int64
	tripped bool
}

// Write delivers bytes until the hangup point, then closes the connection.
func (c *HangupConn) Write(p []byte) (int, error) {
	if c.tripped {
		return 0, fmt.Errorf("%w: connection hung up after %d bytes", ErrInjected, c.written)
	}
	if remaining := c.After - c.written; int64(len(p)) > remaining {
		p = p[:remaining]
		c.tripped = true
	}
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	if c.tripped {
		c.Conn.Close()
		if err == nil {
			err = fmt.Errorf("%w: connection hung up after %d bytes", ErrInjected, c.written)
		}
	}
	return n, err
}

// FlipConn wraps a net.Conn and XORs Mask (0 selects 0x01) into the byte
// at write-stream offset Byte — transport corruption the receiver's frame
// CRC must catch. Choose an offset past the 5-byte handshake, or the
// corruption lands in the magic/version exchange and surfaces as a
// protocol error instead. Single-writer, like HangupConn.
type FlipConn struct {
	net.Conn
	Byte int64 // 0-based offset in the write stream to corrupt
	Mask byte  // XOR mask; 0 selects 0x01

	written int64
}

// Write forwards p, flipping the configured byte as it passes.
func (c *FlipConn) Write(p []byte) (int, error) {
	off := c.Byte - c.written
	if off >= 0 && off < int64(len(p)) {
		mask := c.Mask
		if mask == 0 {
			mask = 0x01
		}
		corrupted := make([]byte, len(p))
		copy(corrupted, p)
		corrupted[off] ^= mask
		p = corrupted
	}
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

// TriggerConn wraps a net.Conn with externally armed faults, for drivers
// whose fault schedule is stated in stream positions rather than byte
// offsets (scenario fault windows): the driver watches the stream and arms
// the trigger when a window opens; the connection itself stays
// position-oblivious. Arm with Hangup or Corrupt from any goroutine; the
// next Write consumes the armed fault. Like HangupConn/FlipConn, the write
// side must be a single goroutine.
type TriggerConn struct {
	net.Conn

	hangup  atomic.Bool
	corrupt atomic.Bool
	written int64
}

// Hangup arms a connection cut: the next write is delivered partially,
// then the connection closes.
func (c *TriggerConn) Hangup() { c.hangup.Store(true) }

// Corrupt arms a one-byte corruption of the next write — transport damage
// the receiver's frame CRC must catch.
func (c *TriggerConn) Corrupt() { c.corrupt.Store(true) }

// Write consumes any armed fault, then forwards.
func (c *TriggerConn) Write(p []byte) (int, error) {
	if c.hangup.Swap(false) {
		// Deliver half the buffer so the cut lands mid-frame, then close.
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.written += int64(n)
		c.Conn.Close()
		return n, fmt.Errorf("%w: connection hung up after %d bytes", ErrInjected, c.written)
	}
	if c.corrupt.Swap(false) {
		corrupted := make([]byte, len(p))
		copy(corrupted, p)
		corrupted[len(p)/2] ^= 0x01
		p = corrupted
	}
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

// TornWriter wraps an io.Writer and silently discards every byte past
// write-stream offset After — the model of a power cut or kill -9 whose
// final write never reached the device. Writes keep "succeeding" so the
// victim stays oblivious, exactly as a crashed process would have been;
// what lands on the other side is a torn prefix for the recovery path to
// truncate at the last valid CRC.
type TornWriter struct {
	W     io.Writer
	After int64 // bytes persisted before the tear

	written int64
}

// Write persists bytes up to the tear point and discards the rest,
// reporting full success either way.
func (w *TornWriter) Write(p []byte) (int, error) {
	keep := w.After - w.written
	if keep < 0 {
		keep = 0
	}
	if keep > int64(len(p)) {
		keep = int64(len(p))
	}
	if keep > 0 {
		if n, err := w.W.Write(p[:keep]); err != nil {
			w.written += int64(n)
			return n, err
		}
	}
	w.written += int64(len(p))
	return len(p), nil
}

// Torn reports whether the tear point has been crossed.
func (w *TornWriter) Torn() bool { return w.written > w.After }

// FailingFile wraps a journal-style file — anything with Write, Sync and
// Close — and fails the Sync call numbered After (1-based) and every one
// following with Cause (ErrInjected if nil): the model of a disk whose
// fsync starts failing under a durability-critical writer. Writes keep
// succeeding; only the durability barrier breaks.
type FailingFile struct {
	F interface {
		io.Writer
		Sync() error
		Close() error
	}
	After int64 // successful Syncs before the failure
	Cause error

	syncs int64
}

// Write forwards to the wrapped file.
func (f *FailingFile) Write(p []byte) (int, error) { return f.F.Write(p) }

// Sync fails from the After-th call on.
func (f *FailingFile) Sync() error {
	f.syncs++
	if f.syncs >= f.After {
		if f.Cause != nil {
			return f.Cause
		}
		return fmt.Errorf("%w: fsync %d failed", ErrInjected, f.syncs)
	}
	return f.F.Sync()
}

// Close forwards to the wrapped file.
func (f *FailingFile) Close() error { return f.F.Close() }

var (
	_ event.Source      = (*FailingSource)(nil)
	_ event.BatchSource = (*FailingSource)(nil)
	_ event.Source      = (*PanickingSource)(nil)
	_ event.Source      = (*SlowSource)(nil)
	_ io.Reader         = (*FailingReader)(nil)
	_ net.Conn          = (*HangupConn)(nil)
	_ net.Conn          = (*FlipConn)(nil)
	_ net.Conn          = (*TriggerConn)(nil)
	_ io.Writer         = (*TornWriter)(nil)
)

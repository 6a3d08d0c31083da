// Journal export: turn one session's write-ahead journal into a scenario
// recording. The recording embeds the exact event stream the daemon
// accepted (as a trace-v3 stream) and the digests of the profiles it
// served, so `scenario replay` re-runs the engine over the stream and
// proves the served profiles bit-identical — an offline audit of a
// production session, with no daemon involved.
package main

import (
	"bytes"
	"fmt"
	"os"

	"hwprof/internal/event"
	"hwprof/internal/journal"
	"hwprof/internal/scenario"
	"hwprof/internal/trace"
	"hwprof/internal/wire"
)

// exporter is the journal.Handler that accumulates a session's stream and
// profile digests. Export is strict: anything that would make the replay
// not bit-identical to the recording — a checkpoint start, a marked
// session, an elastic resize, a non-scenario-shaped config — is refused
// with the reason, never papered over.
type exporter struct {
	meta journal.Meta
	tw   *trace.Writer
	buf  *bytes.Buffer

	events  uint64
	digests []uint32
}

func (x *exporter) Start(meta journal.Meta, state journal.State) error {
	if state.Interval != 0 || state.Observed != 0 || state.Shed != 0 {
		return fmt.Errorf("journal begins at a checkpoint (interval %d, %d events observed): export needs the full batch history",
			state.Interval, state.Observed)
	}
	if meta.Hello.Marked {
		return fmt.Errorf("session %d is marked (client-placed boundaries): a scenario replay clips by interval length and cannot reproduce it", meta.SessionID)
	}
	x.meta = meta
	x.buf = &bytes.Buffer{}
	tw, err := trace.NewWriter(x.buf, event.KindValue)
	if err != nil {
		return err
	}
	x.tw = tw
	return nil
}

func (x *exporter) Batch(events []event.Tuple) error {
	for _, tp := range events {
		if err := x.tw.Write(tp); err != nil {
			return err
		}
	}
	x.events += uint64(len(events))
	return nil
}

func (x *exporter) Boundary(index, shed uint64, profile []byte) error {
	msg, err := wire.DecodeProfile(profile)
	if err != nil {
		return fmt.Errorf("boundary %d frame: %w", index, err)
	}
	if msg.Index != uint64(len(x.digests)) {
		return fmt.Errorf("boundary frame index %d, expected %d", msg.Index, len(x.digests))
	}
	// The scenario digest covers the index and counts only: shed events
	// never reached the engine or the journal, so the replayed profile
	// matches it exactly.
	x.digests = append(x.digests, scenario.Digest(int(msg.Index), msg.Counts))
	return nil
}

// Notice accepts a rung-only notice and refuses a resize.
func (x *exporter) Notice(_ []byte, h wire.Hello) error {
	if h != x.meta.Hello {
		return fmt.Errorf("journal contains an elastic resize (to %v, %d shard(s)) at interval %d: a scenario runs one fixed geometry",
			h.Config, h.Shards, len(x.digests))
	}
	return nil
}

// runExport replays one session's journal read-only and writes it as a
// scenario recording verifiable by `scenario replay`.
func runExport(dir string, id uint64, out string) error {
	if id == 0 {
		ids, err := journal.ScanDir(dir)
		if err != nil {
			return err
		}
		switch len(ids) {
		case 0:
			return fmt.Errorf("no session journals under %s", dir)
		case 1:
			id = ids[0]
		default:
			return fmt.Errorf("%d session journals under %s (%v): pick one with -session", len(ids), dir, ids)
		}
	}
	if out == "" {
		out = fmt.Sprintf("session-%d.rec", id)
	}
	x := &exporter{}
	st, stats, err := journal.Replay(journal.Options{Dir: dir}, id, x)
	if err != nil {
		return fmt.Errorf("session %d: %w", id, err)
	}
	if stats.TornSegments > 0 {
		fmt.Fprintf(os.Stderr, "profctl: session %d journal has a torn tail (%d bytes); exporting the intact prefix\n", id, stats.TornBytes)
	}
	if len(x.digests) == 0 {
		return fmt.Errorf("session %d journal holds %d event(s), shorter than one %d-event interval: nothing to verify",
			id, st.Observed, x.meta.Hello.Config.IntervalLength)
	}
	if err := x.tw.Close(); err != nil {
		return fmt.Errorf("finishing trace: %w", err)
	}

	cfg := x.meta.Hello.Config
	text := fmt.Sprintf(`# Exported from a profiled session journal by profctl -export-journal.
# The event stream rides in the recording's embedded trace; the phase
# source line below is never consulted on replay.
scenario export-session-%d
seed %d
kind value
interval %d
threshold %g
tables %d
entries %d
shards %d

phase journal %d {
	source workload gcc
}
`, id, cfg.Seed, cfg.IntervalLength, cfg.ThresholdPercent,
		cfg.NumTables, cfg.TotalEntries, x.meta.Hello.Shards, x.events)
	sc, err := scenario.Parse(text)
	if err != nil {
		return fmt.Errorf("session %d config does not form a valid scenario: %w", id, err)
	}
	// The scenario's engine must be the journal's engine, bit for bit —
	// the scenario DSL pins the C1/R0/P1 24-bit shape, so a session that
	// ran anything else is not expressible and must be refused, not
	// approximated.
	if want := sc.Config(); want != cfg {
		return fmt.Errorf("session %d config %v is not scenario-shaped (need %v): profiles would not replay bit-identically", id, cfg, want)
	}

	rec := &scenario.Recording{Text: text, Scenario: sc, Trace: x.buf.Bytes(), Digests: x.digests}
	data := rec.Encode()
	if _, err := scenario.DecodeRecording(data); err != nil {
		return fmt.Errorf("session %d: encoded recording does not round-trip: %w", id, err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("exported session %d: %d events, %d interval(s), %d byte(s) → %s\n",
		id, x.events, len(x.digests), len(data), out)
	fmt.Printf("verify with: scenario replay %s\n", out)
	return nil
}

package main

import (
	"context"
	"net"
	"testing"
	"time"

	"hwprof/internal/scenario"
	"hwprof/internal/server"
)

// TestSessionsVerifyAcrossFaultWindows drives the shared session driver
// against an in-process daemon with a two-session scenario whose fault
// windows cut one connection and corrupt another: every session must
// reconnect through both faults and still deliver profiles bit-identical
// to the local mirror.
func TestSessionsVerifyAcrossFaultWindows(t *testing.T) {
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})

	sc, err := scenario.Parse(`
scenario faults
seed 3
interval 5000
entries 512

phase a 15000 {
	source workload gcc
}
phase b 15000 {
	source workload li
}

fault hangup 6000..7000
fault corrupt 18000..19000
`)
	if err != nil {
		t.Fatal(err)
	}
	g := &generator{
		addr: ln.Addr().String(), sessions: 2, scn: sc,
		backoff: 5 * time.Millisecond, attempts: 10, verify: true,
	}
	for _, out := range g.runSessions() {
		switch {
		case out.err != nil:
			t.Errorf("session %d failed: %v", out.idx, out.err)
		case out.reconnects < 1:
			t.Errorf("session %d: no reconnect — the fault windows armed nothing", out.idx)
		case out.skipped != "":
			t.Errorf("session %d: verify skipped: %s", out.idx, out.skipped)
		case out.verified != 6:
			t.Errorf("session %d: %d interval(s) verified bit-identical, want 6", out.idx, out.verified)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"hwprof/internal/server"
)

// TestRemoteMatchesLocal: a -addr run on a block-policy daemon prints the
// same interval lines as a local run with the same flags, at one shard and
// at four. With a table small enough to alias (256 entries), any
// difference between the engine profile builds and the one the daemon
// builds shows within the first intervals.
func TestRemoteMatchesLocal(t *testing.T) {
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

	const intervals = 300
	for _, shards := range []string{"1", "4"} {
		t.Run("shards="+shards, func(t *testing.T) {
			args := []string{"-workload", "go", "-entries", "256", "-intervals", "300",
				"-top", "50", "-exact=false", "-shards", shards}
			local := intervalLines(t, args)
			remote := intervalLines(t, append([]string{"-addr", ln.Addr().String()}, args...))
			if got := strings.Count(local, "\ninterval "); got != intervals {
				t.Fatalf("local run printed %d intervals, want %d", got, intervals)
			}
			if local == remote {
				return
			}
			l, r := strings.Split(local, "\n\n"), strings.Split(remote, "\n\n")
			for i := 0; i < len(l) && i < len(r); i++ {
				if l[i] != r[i] {
					t.Fatalf("local and remote runs differ first at\nlocal:%s\nremote:%s", l[i], r[i])
				}
			}
			t.Fatalf("local run printed %d intervals, remote %d", len(l)-1, len(r)-1)
		})
	}
}

// intervalLines runs the command with args and returns its output after
// the header line, which names the local configuration or the session.
func intervalLines(t *testing.T, args []string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("profile %s: %v", strings.Join(args, " "), err)
	}
	_, body, ok := strings.Cut(out.String(), "\n")
	if !ok {
		t.Fatalf("profile %s printed no header line", strings.Join(args, " "))
	}
	return body
}

package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestListenerForceClose runs a handler that blocks until its connection
// closes: Serve returns nil after Close, Wait with an expired context
// closes that connection and returns the context's error, and a closed
// Listener refuses to serve again.
func TestListenerForceClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var l Listener
	handling := make(chan struct{})
	handled := make(chan error, 1)
	served := make(chan error, 1)
	go func() {
		served <- l.Serve(ln, func(conn net.Conn) {
			close(handling)
			_, err := conn.Read(make([]byte, 1))
			handled <- err
		})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-handling

	l.Close()
	if err := <-served; err != nil {
		t.Fatalf("serve after close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	if err := l.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait with an expired context = %v, want %v", err, context.DeadlineExceeded)
	}
	if err := <-handled; err == nil {
		t.Fatal("handler's read returned without error: its connection was not closed")
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("client read after force-close = %v, want EOF", err)
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	if err := l.Serve(ln2, func(net.Conn) {}); err == nil {
		t.Fatal("serve on a closed listener succeeded")
	}
	if _, err := ln2.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept on the refused listener = %v, want it closed", err)
	}
}

package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

// Listener is a daemon's accept loop: it owns the net.Listener, runs one
// handler goroutine per accepted connection, tracks each connection until
// its handler returns, and waits for the handlers at shutdown. The zero
// value is ready to use; profiled and aggd each run one.
type Listener struct {
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // one per running handler
}

// Serve accepts connections on ln until Close, running handle on its own
// goroutine for each and closing the connection once handle returns. It
// returns nil after Close and the accept error otherwise; on a Listener
// already closed it closes ln and fails.
func (l *Listener) Serve(ln net.Listener, handle func(net.Conn)) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ln.Close()
		return errors.New("wire: listener already closed")
	}
	l.ln = ln
	l.mu.Unlock()
	for {
		conn, err := ln.Accept()
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			if err != nil {
				return nil
			}
			conn.Close()
			continue
		}
		if err != nil {
			l.mu.Unlock()
			return fmt.Errorf("wire: accept: %w", err)
		}
		if l.conns == nil {
			l.conns = make(map[net.Conn]struct{})
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			defer func() {
				l.mu.Lock()
				delete(l.conns, conn)
				l.mu.Unlock()
				conn.Close()
			}()
			handle(conn)
		}()
	}
}

// Close stops accepting: the listener closes, Serve returns nil, and a
// connection accepted in the meantime is closed unhandled. Connections
// already handed to a handler are left to it.
func (l *Listener) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.ln != nil {
		l.ln.Close()
	}
}

// CloseConns closes every connection whose handler is still running.
func (l *Listener) CloseConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for conn := range l.conns {
		conn.Close()
	}
}

// Wait blocks until every handler has returned. Call it after Close. When
// ctx ends first, the remaining connections are closed, the handlers
// awaited, and ctx.Err() returned.
func (l *Listener) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		l.CloseConns()
		<-done
		return ctx.Err()
	}
}

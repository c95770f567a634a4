package netpoll

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

// connFD extracts the file descriptor backing a TCP connection.
func connFD(t *testing.T, c net.Conn) int {
	t.Helper()
	sc, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatalf("SyscallConn: %v", err)
	}
	fd := -1
	if err := sc.Control(func(f uintptr) { fd = int(f) }); err != nil {
		t.Fatalf("Control: %v", err)
	}
	return fd
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("accept: %v", r.err)
	}
	t.Cleanup(func() { a.Close(); r.c.Close() })
	return a, r.c
}

// TestPollerReadinessAndRearm runs once per token: a token's high half must
// survive the round trip through epoll's data field, so the second token
// differs from the first only above bit 31.
func TestPollerReadinessAndRearm(t *testing.T) {
	if !Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	for _, token := range []uint64{7, 1<<32 | 7} {
		t.Run(fmt.Sprintf("token=%#x", token), func(t *testing.T) { readinessAndRearm(t, token) })
	}
}

func readinessAndRearm(t *testing.T, want uint64) {
	p, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	local, remote := tcpPair(t)
	fd := connFD(t, local)
	if err := p.Add(fd, want); err != nil {
		t.Fatalf("Add: %v", err)
	}

	events := make(chan uint64, 16)
	go func() {
		tokens := make([]uint64, 8)
		for {
			n, err := p.Wait(tokens)
			if err != nil {
				close(events)
				return
			}
			for _, token := range tokens[:n] {
				events <- token
			}
		}
	}()

	if _, err := remote.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case token := <-events:
		if token != want {
			t.Fatalf("event token = %#x, want %#x", token, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no readiness event after write")
	}

	// One-shot: more bytes without a rearm must not produce an event.
	if _, err := remote.Write([]byte("y")); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case token := <-events:
		t.Fatalf("unexpected event for token %#x before rearm", token)
	case <-time.After(50 * time.Millisecond):
	}

	// Rearm with unread bytes still buffered: level-triggered semantics
	// fire immediately.
	if err := p.Rearm(fd, want); err != nil {
		t.Fatalf("Rearm: %v", err)
	}
	select {
	case token := <-events:
		if token != want {
			t.Fatalf("event token = %#x, want %#x", token, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no readiness event after rearm with buffered bytes")
	}

	// Drain, rearm, close the peer: the hangup must surface as an event
	// (the owner learns it is a hangup by reading EOF).
	buf := make([]byte, 16)
	syscall.Read(fd, buf)
	if err := p.Rearm(fd, want); err != nil {
		t.Fatalf("Rearm: %v", err)
	}
	remote.Close()
	select {
	case token := <-events:
		if token != want {
			t.Fatalf("event token = %#x, want %#x", token, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no hangup event after peer close")
	}

	p.Close()
	select {
	case _, ok := <-events:
		if ok {
			t.Fatal("event after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not observe Close")
	}
}

// openFDs counts this process's open descriptors, skipping the test where
// /proc/self/fd is unreadable.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// TestPollerHoldsOneDescriptor pins the poller's footprint: one epoll
// descriptor while open, none once closed, with no Wait needed to release
// it.
func TestPollerHoldsOneDescriptor(t *testing.T) {
	if !Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	// The first poller also starts the runtime's own netpoller, whose
	// descriptors stay open; take the baseline after it.
	warm, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	warm.Close()
	base := openFDs(t)

	p, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := openFDs(t) - base; got != 1 {
		t.Fatalf("live poller holds %d descriptors, want 1", got)
	}
	p.Close()
	if got := openFDs(t) - base; got != 0 {
		t.Fatalf("closed poller holds %d descriptors, want 0", got)
	}
}

// TestCloseEndsWait: Close wakes a parked Wait with ErrClosed and the
// descriptor is gone once that Wait has returned; a Wait that starts after
// Close returns ErrClosed at once, and a second Close is a no-op.
func TestCloseEndsWait(t *testing.T) {
	if !Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	p, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	live := openFDs(t)
	tokens := make([]uint64, 4)
	done := make(chan error, 1)
	go func() {
		_, err := p.Wait(tokens)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Wait park
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked Wait: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Wait did not return after Close")
	}
	if got := live - openFDs(t); got != 1 {
		t.Fatalf("closing under a parked Wait released %d descriptors, want 1", got)
	}
	if _, err := p.Wait(tokens); !errors.Is(err, ErrClosed) {
		t.Fatalf("Wait after Close: %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
}

// TestCloseRacesControlCalls runs Close against goroutines looping
// Add/Rearm/Remove on descriptors of their own: every control call returns
// nil or ErrClosed, never an epoll_ctl error from a closed or recycled
// epoll descriptor.
func TestCloseRacesControlCalls(t *testing.T) {
	if !Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	p, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatalf("pipe: %v", err)
		}
		t.Cleanup(func() { r.Close(); w.Close() })
		wg.Add(1)
		go func(fd int, token uint64) {
			defer wg.Done()
			// ok reports whether the loop may go on: a nil error.
			ok := func(err error) bool {
				if err != nil && !errors.Is(err, ErrClosed) {
					errs <- err
					return false
				}
				return err == nil
			}
			for {
				if !ok(p.Add(fd, token)) {
					return
				}
				if !ok(p.Rearm(fd, token)) {
					return
				}
				if err := p.Remove(fd); err != nil {
					errs <- err
					return
				}
			}
		}(int(r.Fd()), uint64(i+1))
	}
	time.Sleep(10 * time.Millisecond)
	p.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("control call racing Close: %v", err)
	}
}

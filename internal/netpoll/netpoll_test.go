package netpoll

import (
	"net"
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

func TestPollerReadinessAndRearm(t *testing.T) {
	if !Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
	p, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	local, remote := tcpPair(t)
	fd := connFD(t, local)
	if err := p.Add(fd, 7); err != nil {
		t.Fatalf("Add: %v", err)
	}

	events := make(chan Event, 16)
	go func() {
		evs := make([]Event, 8)
		for {
			n, err := p.Wait(evs)
			if err != nil {
				close(events)
				return
			}
			for i := 0; i < n; i++ {
				events <- evs[i]
			}
		}
	}()

	if _, err := remote.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case ev := <-events:
		if ev.Token != 7 {
			t.Fatalf("event token = %d, want 7", ev.Token)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no readiness event after write")
	}

	// One-shot: more bytes without a rearm must not produce an event.
	if _, err := remote.Write([]byte("y")); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case ev := <-events:
		t.Fatalf("unexpected event %+v before rearm", ev)
	case <-time.After(50 * time.Millisecond):
	}

	// Rearm with unread bytes still buffered: level-triggered semantics
	// fire immediately.
	if err := p.Rearm(fd, 7); err != nil {
		t.Fatalf("Rearm: %v", err)
	}
	select {
	case ev := <-events:
		if ev.Token != 7 {
			t.Fatalf("event token = %d, want 7", ev.Token)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no readiness event after rearm with buffered bytes")
	}

	// Drain, rearm, close the peer: the hangup must surface.
	buf := make([]byte, 16)
	syscall.Read(fd, buf)
	if err := p.Rearm(fd, 7); err != nil {
		t.Fatalf("Rearm: %v", err)
	}
	remote.Close()
	select {
	case ev := <-events:
		if ev.Token != 7 || !ev.Hangup {
			t.Fatalf("event = %+v, want token 7 with Hangup", ev)
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

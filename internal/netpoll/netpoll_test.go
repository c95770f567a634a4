package netpoll

import (
	"net"
	"sync/atomic"
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

func TestWheelFiresAndCancels(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()

	var fired atomic.Int32
	done := make(chan struct{})
	tm := &Timer{Fn: func() { fired.Add(1); close(done) }}
	w.Schedule(tm, 3*time.Millisecond)
	// Re-scheduling an armed timer keeps the earlier deadline and must not
	// double-fire.
	w.Schedule(tm, time.Hour)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timer did not fire")
	}
	time.Sleep(20 * time.Millisecond)
	if got := fired.Load(); got != 1 {
		t.Fatalf("timer fired %d times, want 1", got)
	}

	// A cancelled timer never fires.
	var cancelled atomic.Int32
	tc := &Timer{Fn: func() { cancelled.Add(1) }}
	w.Schedule(tc, 5*time.Millisecond)
	w.Cancel(tc)
	time.Sleep(30 * time.Millisecond)
	if got := cancelled.Load(); got != 0 {
		t.Fatalf("cancelled timer fired %d times", got)
	}

	// A deadline past the wheel horizon (tick*slots = 16ms) still fires,
	// on a later rotation.
	farDone := make(chan struct{})
	tf := &Timer{Fn: func() { close(farDone) }}
	w.Schedule(tf, 40*time.Millisecond)
	select {
	case <-farDone:
	case <-time.After(5 * time.Second):
		t.Fatal("past-horizon timer did not fire")
	}

	// A deadline that is not a whole number of ticks fires with its slot,
	// not a rotation (80ms) later, whatever the tick phase it was armed at.
	// The coarse tick keeps the ticker regular enough to expose the phase.
	coarse := NewWheel(5*time.Millisecond, 16)
	defer coarse.Stop()
	for i := 0; i < 6; i++ {
		fracDone := make(chan struct{})
		start := time.Now()
		coarse.Schedule(&Timer{Fn: func() { close(fracDone) }}, 19500*time.Microsecond)
		<-fracDone
		if el := time.Since(start); el > 60*time.Millisecond {
			t.Fatalf("3.9-tick timer fired after %v, a rotation late", el)
		}
		time.Sleep(1700 * time.Microsecond) // drift across tick phases
	}

	// A stalled wheel goroutine (here: a callback that overstays) makes the
	// ticker drop ticks; the cursor catches up by the clock, so another
	// timer's deadline slips by the stall's overlap, not by the stall.
	stallDone := make(chan time.Time, 1)
	start := time.Now()
	coarse.Schedule(&Timer{Fn: func() { time.Sleep(60 * time.Millisecond) }}, 5*time.Millisecond)
	coarse.Schedule(&Timer{Fn: func() { stallDone <- time.Now() }}, 80*time.Millisecond)
	if el := (<-stallDone).Sub(start); el > 115*time.Millisecond {
		t.Fatalf("80ms timer fired after %v: a 60ms stall was added to it", el)
	}

	// After firing, the timer is reusable.
	again := make(chan struct{})
	tm.Fn = func() { close(again) }
	w.Schedule(tm, 2*time.Millisecond)
	select {
	case <-again:
	case <-time.After(5 * time.Second):
		t.Fatal("reused timer did not fire")
	}
}

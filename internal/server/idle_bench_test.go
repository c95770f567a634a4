//go:build linux

package server

// BenchmarkIdleConnections measures what a parked connection costs the
// server under each connection core. Both pay the connection's pipeline
// state; the goroutine core adds a read goroutine's stack, the event-driven
// core one registered one-shot descriptor plus a compact pollConn. Neither
// runs a drainer for a connection with nothing to send. The dialer
// runs in a re-exec'd child process so the client half of each socket pair
// does not count against this process's descriptor limit, which is what
// makes the 10k tier fit inside a 20k RLIMIT_NOFILE. Headline numbers are
// recorded in BENCH_net.json at the repo root:
//
//	go test -run '^$' -bench BenchmarkIdleConnections -benchtime 1x ./internal/server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"apcache/internal/netpoll"
)

// TestIdleDialHelper is the dial child: re-exec'd by BenchmarkIdleConnections
// with the target address and connection count in the environment, it opens
// the connections, reports readiness on stdout, and parks them until the
// parent closes its stdin. A normal test run skips it.
func TestIdleDialHelper(t *testing.T) {
	addr := os.Getenv("APCACHE_IDLE_DIAL_ADDR")
	if addr == "" {
		t.Skip("dial helper: only meaningful re-exec'd by BenchmarkIdleConnections")
	}
	n, err := strconv.Atoi(os.Getenv("APCACHE_IDLE_DIAL_N"))
	if err != nil || n <= 0 {
		t.Fatalf("dial helper: bad APCACHE_IDLE_DIAL_N: %v", err)
	}
	conns := make([]net.Conn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			t.Fatalf("dial helper: conn %d: %v", i, err)
		}
		conns = append(conns, c)
	}
	fmt.Println("DIALED")
	io.Copy(io.Discard, os.Stdin) // park until the parent hangs up
}

func BenchmarkIdleConnections(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		for _, mode := range []string{ConnModeGoroutine, ConnModePoller} {
			b.Run(fmt.Sprintf("conns=%d/connmode=%s", n, mode), func(b *testing.B) {
				if mode == ConnModePoller && !netpoll.Supported() {
					b.Skip("poller core unsupported on this platform")
				}
				var lim syscall.Rlimit
				if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil && uint64(n)+512 > lim.Cur {
					b.Skipf("need %d descriptors for %d conns, RLIMIT_NOFILE is %d", n+512, n, lim.Cur)
				}
				for i := 0; i < b.N; i++ {
					measureIdleConns(b, mode, n)
				}
			})
		}
	}
}

// measureIdleConns runs one sample: park n idle connections dialed from a
// child process, then report the server-side memory and goroutine cost per
// connection.
func measureIdleConns(b *testing.B, mode string, n int) {
	cfg := testConfig()
	cfg.ConnMode = mode
	s := New(cfg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	defer s.Close()
	if got := s.ConnMode(); got != mode {
		b.Skipf("conn mode %q downgraded to %q", mode, got)
	}

	g0 := runtime.NumGoroutine()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	cmd := exec.Command(os.Args[0], "-test.run=^TestIdleDialHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"APCACHE_IDLE_DIAL_ADDR="+addr.String(),
		"APCACHE_IDLE_DIAL_N="+strconv.Itoa(n))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		b.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		b.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		b.Fatalf("start dial child: %v", err)
	}
	defer func() {
		stdin.Close() // unparks the child; its conns close on exit
		cmd.Wait()
	}()

	dialed := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "DIALED") {
				dialed <- nil
				io.Copy(io.Discard, stdout)
				return
			}
		}
		dialed <- fmt.Errorf("dial child exited before DIALED: %v", sc.Err())
	}()
	select {
	case err := <-dialed:
		if err != nil {
			b.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		b.Fatal("dial child timed out")
	}
	deadline := time.Now().Add(time.Minute)
	for s.Clients() != n {
		if time.Now().After(deadline) {
			b.Fatalf("%d/%d connections registered", s.Clients(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	runtime.GC()
	runtime.ReadMemStats(&m1)
	used := int64(m1.HeapInuse+m1.StackInuse) - int64(m0.HeapInuse+m0.StackInuse)
	if used < 0 {
		used = 0
	}
	b.ReportMetric(float64(used)/float64(n), "B/conn")
	b.ReportMetric(float64(runtime.NumGoroutine()-g0)/float64(n), "goroutines/conn")
}

//go:build linux

package server

import (
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"apcache/internal/netproto"
)

// acceptChildEnv marks the re-exec'd child that runs
// TestAcceptSurvivesDescriptorExhaustion under a lowered descriptor limit.
const acceptChildEnv = "APCACHE_ACCEPT_EXHAUST_CHILD"

// TestAcceptSurvivesDescriptorExhaustion runs the server out of descriptors
// while a connection waits in its listen backlog, so accept fails with
// EMFILE, then frees them: a fresh connection must be accepted and answer a
// Ping. The test re-execs itself and lowers RLIMIT_NOFILE in the child, so
// the limit reaches no other test.
func TestAcceptSurvivesDescriptorExhaustion(t *testing.T) {
	if os.Getenv(acceptChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestAcceptSurvivesDescriptorExhaustion$", "-test.v", "-test.timeout=2m")
		cmd.Env = append(os.Environ(), acceptChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestAcceptSurvivesDescriptorExhaustion")) {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatalf("getrlimit: %v", err)
	}
	lim.Cur = min(lim.Cur, 64)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatalf("setrlimit: %v", err)
	}
	forEachConnMode(t, func(t *testing.T, mode string) {
		acceptFailed := make(chan struct{}, 1)
		cfg := testConfig()
		cfg.Logf = func(format string, args ...interface{}) {
			if strings.HasPrefix(format, "server: accept:") {
				select {
				case acceptFailed <- struct{}{}:
				default:
				}
			}
		}
		_, addr := listenMode(t, cfg, mode)

		// Take every free descriptor, then give one back for the dial: the
		// dialed connection waits in the backlog, and accepting it fails.
		var hold []*os.File
		release := func() {
			for _, f := range hold {
				f.Close()
			}
			hold = nil
		}
		defer release()
		for {
			f, err := os.Open(os.DevNull)
			if err != nil {
				if !errors.Is(err, syscall.EMFILE) {
					t.Fatalf("open: %v", err)
				}
				break
			}
			hold = append(hold, f)
		}
		if len(hold) == 0 {
			t.Fatal("no descriptor was free under the lowered limit")
		}
		hold[len(hold)-1].Close()
		hold = hold[:len(hold)-1]
		flood, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatalf("dial into the full table: %v", err)
		}
		select {
		case <-acceptFailed:
		case <-time.After(time.Second): // a loop that died on the error logs nothing
		}
		release()
		flood.Close()

		conn := rawDial(t, addr)
		conn.SetDeadline(time.Now().Add(3 * time.Second))
		hello(t, conn)
		if err := netproto.Write(conn, &netproto.Ping{ID: 2}); err != nil {
			t.Fatal(err)
		}
		msg, err := readMsg(conn)
		if err != nil {
			t.Fatalf("Ping after the descriptors were freed: %v", err)
		}
		if p, ok := msg.(*netproto.Pong); !ok || p.ID != 2 {
			t.Fatalf("Ping reply %#v, want Pong 2", msg)
		}
	})
}

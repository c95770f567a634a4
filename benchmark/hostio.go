package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInputs are the generated inputs the host child applies. They are the
// only thing of the workload it ever sees.
type hostInputs struct {
	Initial []float64 // value of key i before any update
	Warm    []update  // applied back to back on WARM
	Feed    []update  // applied open loop, at T0+Due
	Sat     []update  // applied back to back, cycled, for the saturated phase
}

const inputMagic = 0x41504249 // "APBI"

func writeInputs(path string, in *hostInputs) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write inputs: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	put := func(v any) {
		if err == nil {
			err = binary.Write(w, binary.LittleEndian, v)
		}
	}
	put(uint32(inputMagic))
	put(uint32(len(in.Initial)))
	put(in.Initial)
	for _, block := range [][]update{in.Warm, in.Feed, in.Sat} {
		put(uint32(len(block)))
		for i := range block {
			put(block[i].Key)
			put(block[i].Value)
			put(block[i].Due)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write inputs %s: %w", path, err)
	}
	return nil
}

func readInputs(path string) (*hostInputs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("read inputs: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	get := func(v any) {
		if err == nil {
			err = binary.Read(r, binary.LittleEndian, v)
		}
	}
	var magic, n uint32
	get(&magic)
	if err == nil && magic != inputMagic {
		return nil, fmt.Errorf("read inputs %s: not an input file", path)
	}
	in := &hostInputs{}
	get(&n)
	if err == nil {
		in.Initial = make([]float64, n)
		get(in.Initial)
	}
	for _, block := range []*[]update{&in.Warm, &in.Feed, &in.Sat} {
		get(&n)
		if err != nil {
			break
		}
		*block = make([]update, n)
		for i := range *block {
			get(&(*block)[i].Key)
			get(&(*block)[i].Value)
			get(&(*block)[i].Due)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("read inputs %s: %w", path, err)
	}
	return in, nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// invalidRun marks a run that says nothing about the system: the generator
// ran late, the host died, a port or directory collided. It is reported
// with its reason and never as a slow or failed measurement.
type invalidRun struct{ reason string }

func (e *invalidRun) Error() string { return "invalid run: " + e.reason }

func invalidf(format string, args ...any) error {
	return &invalidRun{reason: fmt.Sprintf(format, args...)}
}

// hostProc is the parent's handle on one host child.
type hostProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	lines   chan string // stdout lines; closed when the child's stdout ends
	addr    string
	cfg     hostConfig
	execAt  time.Time
	readyIn time.Duration // exec to READY
	recov   int           // keys the host found in its journal
}

const hostReplyTimeout = 20 * time.Second

// startHost re-executes this binary as a host child configured by cfg and
// waits until it is listening.
func startHost(e *runEnv, cfg hostConfig) (*hostProc, error) {
	ctx, dir := e.ctx, e.dir
	exe, err := os.Executable()
	if err != nil {
		return nil, invalidf("cannot find own executable: %v", err)
	}
	cfgPath := filepath.Join(dir, fmt.Sprintf("host-%d.json", time.Now().UnixNano()))
	if err := writeJSON(cfgPath, cfg); err != nil {
		return nil, invalidf("write host config: %v", err)
	}
	cmd := exec.CommandContext(ctx, exe, "-role", "host", "-config", cfgPath)
	cmd.Stderr = os.Stderr
	// The feeder paces itself with kernel sleeps, and a goroutine blocked
	// in one keeps its scheduler slot. One extra slot keeps the server's
	// own goroutines at one per CPU, as if the feed came from outside.
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", bits.OnesCount64(e.cpus.host)+1))
	killWithParent(cmd)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, invalidf("host stdin: %v", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, invalidf("host stdout: %v", err)
	}
	h := &hostProc{cmd: cmd, stdin: stdin, lines: make(chan string, 4), cfg: cfg, execAt: time.Now()}
	// The child inherits the CPU mask of the thread that forks it.
	runtime.LockOSThread()
	pinned := setAffinity(0, e.cpus.host) == nil
	err = cmd.Start()
	if pinned {
		_ = setAffinity(0, e.cpus.parent) // the same call just succeeded with another mask
	}
	runtime.UnlockOSThread()
	if err != nil {
		return nil, invalidf("start host: %v", err)
	}
	go func() {
		defer close(h.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			h.lines <- sc.Text()
		}
	}()
	line, err := h.expect(ctx, "READY")
	if err != nil {
		h.kill()
		return nil, err
	}
	h.readyIn = time.Since(h.execAt)
	f := strings.Fields(line)
	if len(f) != 3 {
		h.kill()
		return nil, invalidf("host said %q", line)
	}
	h.addr = f[1]
	h.recov, _ = strconv.Atoi(f[2])
	return h, nil
}

// expect waits for the host's next line and checks its first word. A host
// that exits or goes silent makes the run invalid.
func (h *hostProc) expect(ctx context.Context, word string) (string, error) {
	select {
	case line, ok := <-h.lines:
		if !ok {
			return "", invalidf("host exited early (waiting for %s)", word)
		}
		if !strings.HasPrefix(line, word) {
			return "", invalidf("host said %q, expected %s", line, word)
		}
		return line, nil
	case <-time.After(hostReplyTimeout + time.Duration(h.cfg.FeedNS+h.cfg.SatNS)):
		return "", invalidf("host silent (waiting for %s)", word)
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// send writes one command line to the host.
func (h *hostProc) send(format string, args ...any) error {
	if _, err := fmt.Fprintf(h.stdin, format+"\n", args...); err != nil {
		return invalidf("host stdin closed: %v", err)
	}
	return nil
}

// report reads the report the host wrote before it said DONE.
func (h *hostProc) report() (*hostReport, error) {
	var rep hostReport
	if err := readJSON(h.cfg.ReportFile, &rep); err != nil {
		return nil, invalidf("host report: %v", err)
	}
	return &rep, nil
}

// quit asks the host to shut down gracefully and waits for it; a host that
// does not leave in time is killed.
func (h *hostProc) quit() {
	_ = h.send("QUIT") // a dead host is handled by the wait below
	h.stdin.Close()
	done := make(chan struct{})
	go func() {
		for range h.lines {
		}
		_ = h.cmd.Wait() // exit status of a host we are discarding
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		h.kill()
		<-done
	}
}

// kill is kill -9: no drain, no journal sync, and the wait reaps the child.
func (h *hostProc) kill() {
	if h.cmd.Process != nil {
		_ = h.cmd.Process.Kill() // already gone is fine
	}
	h.stdin.Close()
	for range h.lines {
	}
	_ = h.cmd.Wait() // a killed child's status is "signal: killed"
}

// isInvalid reports whether err marks an invalid run.
func isInvalid(err error) bool {
	var inv *invalidRun
	return errors.As(err, &inv)
}

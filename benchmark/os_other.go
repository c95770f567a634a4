//go:build !linux

package main

import (
	"errors"
	"os/exec"
	"time"
)

var errNoAffinity = errors.New("no CPU affinity on this platform")

// Off Linux there is no /proc and no rusage contract this benchmark relies
// on: the network workloads are skipped and the process metrics read zero.
const reexecSupported = false

func cpuSeconds() (user, sys float64) { return 0, 0 }
func peakRSSMB() float64              { return 0 }
func resetPeakRSS()                   {}
func cpuModel() string                { return "unknown" }
func coarseSleep(d time.Duration)     { time.Sleep(d) }
func killWithParent(*exec.Cmd)        {}
func setAffinity(int, uint64) error   { return errNoAffinity }
func pinProcess(uint64) error         { return errNoAffinity }

//go:build !linux

package netpoll

import "syscall"

// ErrClosed is returned by Wait after Close.
var ErrClosed = ErrUnsupported

// ConnIO is unavailable without a poller implementation.
type ConnIO struct{}

func NewConnIO(rc syscall.RawConn) *ConnIO       { return &ConnIO{} }
func (io *ConnIO) Read(buf []byte) (int, error)  { return 0, ErrUnsupported }
func (io *ConnIO) Write(buf []byte) (int, error) { return 0, ErrUnsupported }

// Poller is the stub for platforms without an implementation; New always
// fails and the server stays on its goroutine-per-connection core.
type Poller struct{}

// Supported reports whether this platform has a poller implementation.
func Supported() bool { return false }

// New always returns ErrUnsupported on this platform.
func New() (*Poller, error) { return nil, ErrUnsupported }

func (p *Poller) Add(fd int, token uint64) error    { return ErrUnsupported }
func (p *Poller) Rearm(fd int, token uint64) error  { return ErrUnsupported }
func (p *Poller) Remove(fd int) error               { return ErrUnsupported }
func (p *Poller) Wait(tokens []uint64) (int, error) { return 0, ErrUnsupported }
func (p *Poller) Close() error                      { return nil }

//go:build linux

package netpoll

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
)

// ErrClosed is returned by Wait and by the control calls after Close.
var ErrClosed = errors.New("netpoll: poller closed")

// Poller multiplexes read-readiness for many descriptors over one epoll
// instance. Add/Rearm/Remove/Close are safe from any goroutine; Wait must be
// called from a single owner goroutine.
//
// Closing the epoll descriptor is the one way a poller stops: Close wakes
// a parked Wait, and the runtime defers the real close(2) until that wait
// has returned, so no epoll_wait runs on a recycled descriptor number.
type Poller struct {
	// fdMu orders Add/Rearm/Remove against Close: control calls hold it
	// shared and bail once closed is set, so no epoll_ctl can run on a
	// recycled descriptor number.
	fdMu   sync.RWMutex
	closed bool
	epfd   int

	// epf wraps epfd so the wait loop can park on it through the runtime
	// netpoller instead of blocking an OS thread in epoll_wait. An epoll
	// descriptor is itself pollable — it reads as ready whenever its
	// interest set has pending events — so readiness propagates through
	// the runtime's own poller and a waking event loop is scheduled like
	// any other goroutine, with no kernel thread wakeup on the hot path.
	epf  *os.File
	eprc syscall.RawConn

	// Wait's raw-read callback and its in/out slots, built once so the
	// steady-state wait loop does not allocate a closure per park, and the
	// kernel event scratch parkEvs slices. Owned by the Wait goroutine.
	parkEvs []syscall.EpollEvent
	parkN   int
	parkErr error
	parkFn  func(uintptr) bool
	raw     []syscall.EpollEvent
}

// Supported reports whether this platform has a poller implementation.
func Supported() bool { return true }

// New creates a Poller.
func New() (*Poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("netpoll: epoll_create1: %w", err)
	}
	// Hand the epoll descriptor to the runtime netpoller. os.NewFile only
	// registers pollable descriptors that are already non-blocking; the flag
	// is harmless for epoll_wait itself, which takes an explicit timeout.
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return nil, fmt.Errorf("netpoll: set epoll fd non-blocking: %w", err)
	}
	p := &Poller{epfd: epfd, epf: os.NewFile(uintptr(epfd), "netpoll-epoll")}
	rc, err := p.epf.SyscallConn()
	if err != nil {
		p.epf.Close()
		return nil, fmt.Errorf("netpoll: raw conn for epoll fd: %w", err)
	}
	p.eprc = rc
	p.parkFn = func(uintptr) bool {
		for {
			n, cerr := syscall.EpollWait(p.epfd, p.parkEvs, 0)
			if cerr == syscall.EINTR {
				continue
			}
			p.parkN, p.parkErr = n, cerr
			// Empty and healthy: stay parked until the runtime reports
			// the epoll descriptor readable again.
			return n != 0 || cerr != nil
		}
	}
	return p, nil
}

// readyFlags is the event set every descriptor is armed with: read
// readiness plus peer-hangup, one-shot so a descriptor reports at most once
// until its owner re-arms it.
const readyFlags = syscall.EPOLLIN | syscall.EPOLLRDHUP | syscall.EPOLLONESHOT

// event builds the armed event carrying token in epoll's 64-bit data
// field, which syscall.EpollEvent exposes as Fd and Pad; Wait joins them.
func event(token uint64) syscall.EpollEvent {
	return syscall.EpollEvent{Events: readyFlags, Fd: int32(uint32(token)), Pad: int32(uint32(token >> 32))}
}

// Add registers fd with the poller under token. The descriptor is armed
// one-shot: after its first event it is disarmed until Rearm.
func (p *Poller) Add(fd int, token uint64) error {
	ev := event(token)
	if err := p.ctl(syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		return fmt.Errorf("netpoll: add fd %d: %w", fd, err)
	}
	return nil
}

// ctl issues an epoll_ctl while holding the descriptor lock shared, so the
// epoll fd cannot be closed (and its number recycled) under the call.
func (p *Poller) ctl(op int, fd int, ev *syscall.EpollEvent) error {
	p.fdMu.RLock()
	defer p.fdMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	return syscall.EpollCtl(p.epfd, op, fd, ev)
}

// Rearm re-enables a one-shot descriptor after its owner drained it. With
// level-triggered semantics a descriptor that still has buffered bytes
// fires again immediately, so a bounded read budget never strands data.
func (p *Poller) Rearm(fd int, token uint64) error {
	ev := event(token)
	if err := p.ctl(syscall.EPOLL_CTL_MOD, fd, &ev); err != nil {
		return fmt.Errorf("netpoll: rearm fd %d: %w", fd, err)
	}
	return nil
}

// Remove deregisters fd. Removing a descriptor that the kernel already
// dropped (it was closed), or removing after the poller shut down, is not an
// error.
func (p *Poller) Remove(fd int) error {
	err := p.ctl(syscall.EPOLL_CTL_DEL, fd, nil)
	if err != nil && !errors.Is(err, ErrClosed) &&
		!errors.Is(err, syscall.EBADF) && !errors.Is(err, syscall.ENOENT) {
		return fmt.Errorf("netpoll: remove fd %d: %w", fd, err)
	}
	return nil
}

// Wait blocks until at least one registered descriptor is ready, filling
// tokens with the ready descriptors' tokens and returning the count. It
// returns ErrClosed once Close has been called, whether it was parked then
// or called afterwards; only the owning goroutine may call it. The kernel
// event scratch is retained on the Poller, so the steady-state loop does
// not allocate.
//
// While the set is empty the goroutine parks in the runtime netpoller, not
// an OS thread. The zero-timeout epoll_wait runs inside the raw-read
// callback, which the runtime invokes only after re-arming its readiness
// latch for the descriptor: an event that lands between an empty poll and
// the park sets the latch and wakes us. Polling first and parking second
// would discard exactly that event — the latch reset precedes the wait —
// and with the inner ready list non-empty the outer edge-triggered poller
// would never fire again: a permanent stall.
func (p *Poller) Wait(tokens []uint64) (int, error) {
	if len(p.raw) < len(tokens) {
		p.raw = make([]syscall.EpollEvent, len(tokens))
	}
	p.parkEvs = p.raw[:len(tokens)]
	if err := p.eprc.Read(p.parkFn); err != nil {
		// A closed file fails the parked read with the runtime's "use of
		// closed file", which os.ErrClosed does not match: the flag
		// tells a shutdown from a broken poller.
		p.fdMu.RLock()
		defer p.fdMu.RUnlock()
		if p.closed {
			return 0, ErrClosed
		}
		return 0, fmt.Errorf("netpoll: park: %w", err)
	}
	if p.parkErr != nil {
		return 0, fmt.Errorf("netpoll: epoll_wait: %w", p.parkErr)
	}
	for i := range tokens[:p.parkN] {
		tokens[i] = uint64(uint32(p.raw[i].Fd)) | uint64(uint32(p.raw[i].Pad))<<32
	}
	return p.parkN, nil
}

// Close closes the epoll descriptor, which wakes a parked Wait with
// ErrClosed and fails later control calls with it. Safe from any
// goroutine, idempotent.
func (p *Poller) Close() error {
	p.fdMu.Lock()
	defer p.fdMu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	return p.epf.Close()
}

// ConnIO performs non-blocking reads and writes on one connection through
// its RawConn. The raw-conn callbacks are built once at construction and
// reused for the connection's lifetime: RawConn methods take the callback
// through an interface, so a closure built per call escapes to the heap —
// at one read and one write per served frame that was a measurable share of
// the request path's allocations. The RawConn detour itself is what keeps
// the runtime holding a reference on the descriptor, so a concurrent Close
// cannot recycle the fd under an I/O attempt. Not safe for concurrent use;
// the connection's single-drainer invariants provide the exclusion.
type ConnIO struct {
	rc syscall.RawConn

	rbuf []byte
	rn   int
	rerr error
	rfn  func(uintptr) bool

	wbuf []byte
	wn   int
	werr error
	wfn  func(uintptr) bool
}

// NewConnIO builds the reusable I/O state for one connection.
func NewConnIO(rc syscall.RawConn) *ConnIO {
	io := &ConnIO{rc: rc}
	io.rfn = func(fd uintptr) bool {
		io.rn, io.rerr = syscall.Read(int(fd), io.rbuf)
		return true // one attempt only: never let the runtime park this goroutine
	}
	io.wfn = func(fd uintptr) bool {
		for io.wn < len(io.wbuf) {
			n, e := syscall.Write(int(fd), io.wbuf[io.wn:])
			if n > 0 {
				io.wn += n
			}
			if e != nil {
				if e == syscall.EINTR {
					continue
				}
				if e != syscall.EAGAIN {
					io.werr = e
				}
				return true // one pass only: report the short write instead of parking
			}
		}
		return true
	}
	return io
}

// Read performs exactly one non-blocking read into buf. It returns ErrAgain
// when no bytes are available (re-arm and wait), (0, nil) on EOF, and any
// other error when the connection is closed or broken.
func (io *ConnIO) Read(buf []byte) (int, error) {
	io.rbuf = buf
	err := io.rc.Read(io.rfn)
	n, rerr := io.rn, io.rerr
	io.rbuf, io.rerr = nil, nil
	if err != nil {
		return 0, err // connection closed under us
	}
	if rerr != nil {
		if rerr == syscall.EAGAIN || rerr == syscall.EINTR {
			// EINTR maps to "try later" too: the level-triggered poller
			// re-fires immediately on re-arm while bytes remain.
			return 0, ErrAgain
		}
		return 0, rerr
	}
	return n, nil
}

// Write writes as much of buf as the socket accepts without blocking,
// returning the byte count. A short count with a nil error means the socket
// buffer filled (EAGAIN): the caller must hand the remainder to a goroutine
// that may block. Like Read it never lets the runtime park the calling
// goroutine.
func (io *ConnIO) Write(buf []byte) (int, error) {
	io.wbuf, io.wn, io.werr = buf, 0, nil
	err := io.rc.Write(io.wfn)
	n, werr := io.wn, io.werr
	io.wbuf, io.werr = nil, nil
	if err != nil {
		return n, err // connection closed under us
	}
	return n, werr
}

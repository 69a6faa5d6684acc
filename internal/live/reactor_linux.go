package live

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vsgm/internal/types"
	"vsgm/internal/wire"
)

// The linux reactor: a small fixed pool of event-loop goroutines drives all
// established connections through epoll. Inbound connections are read-only
// (each read goes through the frameAssembler and fabric.drain, the receive
// path the goroutine engine shares); outbound
// connections are write-only (mailbox-fed batched flushes). Handshakes and
// dials still run in short-lived goroutines — blocking work never enters a
// loop — and hand the raw fd to a loop once the connection is established.
const reactorSupported = true

type reactor struct {
	f     *fabric
	loops []*evLoop
	next  atomic.Uint64
}

func newReactor(f *fabric, nloops int) (*reactor, error) {
	if nloops < 1 {
		nloops = 1
	}
	r := &reactor{f: f}
	for i := 0; i < nloops; i++ {
		lp, err := newEvLoop(r)
		if err != nil {
			for _, prev := range r.loops {
				prev.closeFDs()
			}
			return nil, err
		}
		r.loops = append(r.loops, lp)
	}
	return r, nil
}

func (r *reactor) startLoops() {
	for _, lp := range r.loops {
		r.f.wg.Add(1)
		go lp.run()
	}
}

// pick assigns work to loops round-robin.
func (r *reactor) pick() *evLoop {
	return r.loops[int(r.next.Add(1))%len(r.loops)]
}

// shutdown wakes every loop so it can observe the fabric closing and tear
// down; the fabric's WaitGroup joins them.
func (r *reactor) shutdown() {
	for _, lp := range r.loops {
		lp.wake()
	}
}

// startLink attaches a link's outbound side to a loop: the mailbox's
// ready-hook kicks the loop, which dials (in a transient goroutine) on first
// traffic and owns the connection's writes from then on.
func (r *reactor) startLink(l *link) {
	lp := r.pick()
	rl := &rlink{l: l, lp: lp}
	l.mb.setOnReady(func() { lp.kick(rl) })
	lp.kick(rl)
}

// acceptInbound runs in a transient goroutine per accepted connection: it
// reads the handshake frame with blocking I/O, then converts the connection
// to a raw nonblocking fd registered with an event loop. The caller has
// already added this goroutine to the fabric's WaitGroup.
func (r *reactor) acceptInbound(conn net.Conn) {
	f := r.f
	defer f.wg.Done()
	retired := make(chan struct{})
	f.watchConn(conn, retired) // fabric close unblocks a stuck handshake read
	from, err := readHandshake(conn, f.cfg.ReadIdleTimeout)
	if err != nil {
		conn.Close()
		close(retired)
		return
	}
	file, fd, err := dupFD(conn)
	if err != nil {
		conn.Close()
		close(retired)
		return
	}
	c := &rconn{
		fd:       fd,
		file:     file,
		peer:     from,
		retired:  retired,
		asm:      newFrameAssembler(f.pool),
		in:       f.linkFor(from),
		lastRead: time.Now(),
	}
	r.pick().register(c)
}

// dupFD extracts a nonblocking raw fd from an established TCP connection.
// The returned *os.File owns the duplicated descriptor (it must stay alive
// and be Closed exactly once); the original connection is closed — the
// reactor is the sole owner from here.
func dupFD(conn net.Conn) (*os.File, int, error) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return nil, 0, fmt.Errorf("live: reactor needs *net.TCPConn, got %T", conn)
	}
	file, err := tc.File()
	if err != nil {
		return nil, 0, err
	}
	fd := int(file.Fd())
	if err := syscall.SetNonblock(fd, true); err != nil {
		file.Close()
		return nil, 0, err
	}
	conn.Close()
	return file, fd, nil
}

// rconn is one fd registered with a loop: inbound connections carry an
// assembler (read side), outbound connections carry their rlink (write
// side).
type rconn struct {
	fd      int
	file    *os.File
	peer    types.ProcID
	retired chan struct{}

	asm      *frameAssembler // inbound only
	in       *link           // inbound only: the peer's link record (read counters)
	lastRead time.Time

	lnk *rlink // outbound only

	wantW  bool // EPOLLOUT currently armed
	closed bool
}

// wframe is one chaos-processed frame waiting to be copied into the write
// buffer; readyAt defers it when latency injection is active.
type wframe struct {
	fb      *wire.FrameBuf
	readyAt time.Time
}

// rlink is the reactor-side writer state for one link, owned by its loop
// goroutine: pending chaos survivors, the coalesced write buffer (with frame
// bounds so a reconnect resends from the first frame the kernel did not
// fully accept), and the active connection.
type rlink struct {
	l  *link
	lp *evLoop

	conn    *rconn
	dialing bool

	pending    []wframe
	delayFront time.Time // serialized chaos latency front

	wbuf   []byte
	woff   int
	bounds []int // absolute end offset of each frame within wbuf
	acked  int   // frames already counted as sent

	// stalledAt stamps the moment the kernel stopped accepting bytes
	// (EAGAIN with no progress); WriteTimeout past it, the connection is
	// declared stuck and severed — the reactor's analogue of the goroutine
	// engine's per-flush write deadline.
	stalledAt time.Time

	batch  []*wire.FrameBuf // tryTakeBatch scratch
	parked bool             // on the loop's delay-wait list
}

// hold appends a chaos survivor to pending and counts its bytes as resident.
func (rl *rlink) hold(wf wframe) {
	rl.pending = append(rl.pending, wf)
	rl.l.held.Add(int64(len(wf.fb.Bytes())))
}

// buffered reports whether the link has anything to push to the wire.
func (rl *rlink) buffered() bool {
	return len(rl.pending) > 0 || rl.woff < len(rl.wbuf)
}

type evLoop struct {
	r            *reactor
	epfd         int
	wakeR, wakeW int

	mu     sync.Mutex
	adds   []*rconn
	kicked []*rlink
	dialed []dialResult
	woken  bool
	dead   bool

	conns   map[int]*rconn
	links   map[*rlink]struct{}
	waiting []*rlink // links with delay-deferred frames
	scanAt  time.Time
}

type dialResult struct {
	rl *rlink
	c  *rconn // nil: the dial attempt could not be adopted; retry
}

func newEvLoop(r *reactor) (*evLoop, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("live: epoll_create1: %w", err)
	}
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, fmt.Errorf("live: pipe2: %w", err)
	}
	lp := &evLoop{
		r:     r,
		epfd:  epfd,
		wakeR: p[0],
		wakeW: p[1],
		conns: make(map[int]*rconn),
		links: make(map[*rlink]struct{}),
	}
	ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN), Fd: int32(lp.wakeR)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, lp.wakeR, &ev); err != nil {
		lp.closeFDs()
		return nil, fmt.Errorf("live: epoll_ctl wake: %w", err)
	}
	return lp, nil
}

func (lp *evLoop) closeFDs() {
	syscall.Close(lp.epfd)
	syscall.Close(lp.wakeR)
	syscall.Close(lp.wakeW)
}

// wake nudges the loop out of epoll_wait (idempotent until drained).
func (lp *evLoop) wake() {
	lp.mu.Lock()
	if lp.woken || lp.dead {
		lp.mu.Unlock()
		return
	}
	lp.woken = true
	lp.mu.Unlock()
	one := [1]byte{1}
	syscall.Write(lp.wakeW, one[:])
}

// register queues an established inbound connection for the loop to adopt.
func (lp *evLoop) register(c *rconn) {
	lp.mu.Lock()
	if lp.dead {
		lp.mu.Unlock()
		releaseRconn(c)
		return
	}
	lp.adds = append(lp.adds, c)
	lp.mu.Unlock()
	lp.wake()
}

// kick marks a link as having work (mailbox traffic, retry).
func (lp *evLoop) kick(rl *rlink) {
	lp.mu.Lock()
	if lp.dead {
		lp.mu.Unlock()
		return
	}
	lp.kicked = append(lp.kicked, rl)
	lp.mu.Unlock()
	lp.wake()
}

// finishDial hands a freshly dialed (or failed) connection back to the loop.
func (lp *evLoop) finishDial(rl *rlink, c *rconn) {
	lp.mu.Lock()
	if lp.dead {
		lp.mu.Unlock()
		if c != nil {
			releaseRconn(c)
		}
		return
	}
	lp.dialed = append(lp.dialed, dialResult{rl: rl, c: c})
	lp.mu.Unlock()
	lp.wake()
}

func releaseRconn(c *rconn) {
	c.file.Close()
	close(c.retired)
	if c.asm != nil {
		c.asm.close()
	}
}

// run is one event loop: wait for readiness, drive reads and writes, adopt
// new connections, and enforce read-progress deadlines — all without ever
// blocking on anything but epoll_wait itself.
func (lp *evLoop) run() {
	f := lp.r.f
	defer f.wg.Done()
	defer lp.teardown()
	events := make([]syscall.EpollEvent, 256)
	var fr frame // decode scratch shared by all of this loop's conns
	for {
		n, err := syscall.EpollWait(lp.epfd, events, lp.timeoutMs())
		if err != nil && err != syscall.EINTR {
			return
		}
		if f.isClosing() {
			return
		}
		if n > 0 {
			f.rstats.wakeups.Add(1)
			f.rstats.events.Add(int64(n))
		}
		for i := 0; i < n; i++ {
			ev := events[i]
			fd := int(ev.Fd)
			if fd == lp.wakeR {
				lp.drainWake()
				continue
			}
			c := lp.conns[fd]
			if c == nil || c.closed {
				continue
			}
			switch {
			case c.asm != nil:
				lp.readReady(c, &fr)
			case c.lnk != nil:
				rl := c.lnk
				if ev.Events&uint32(syscall.EPOLLERR|syscall.EPOLLHUP) != 0 && !rl.buffered() {
					// Peer went away with nothing to send: retire the
					// connection quietly; the next frame redials.
					lp.teardownWrite(rl)
					continue
				}
				lp.pump(rl)
			}
			if f.isClosing() {
				return
			}
		}
		lp.processHandoffs(&fr)
		lp.runDue()
		lp.scanDeadlines()
		lp.scanWriteStalls()
		if f.isClosing() {
			return
		}
	}
}

// drainWake empties the self-pipe and then re-arms the wake flag, in that
// order: were the flag cleared first, a wake() landing before the read would
// have its byte swallowed by it and leave woken set over an empty pipe — every
// later wake() a no-op and the loop asleep in epoll_wait for good. A wake()
// that finds the flag still set during the read needs no byte of its own:
// the handoff it announces is queued already and processHandoffs runs later
// in this same iteration.
func (lp *evLoop) drainWake() {
	var buf [64]byte
	for {
		n, err := syscall.Read(lp.wakeR, buf[:])
		if n < len(buf) || err != nil {
			break
		}
	}
	lp.mu.Lock()
	lp.woken = false
	lp.mu.Unlock()
}

// processHandoffs adopts queued connections and runs queued kicks.
func (lp *evLoop) processHandoffs(fr *frame) {
	lp.mu.Lock()
	adds := lp.adds
	kicks := lp.kicked
	dialed := lp.dialed
	lp.adds, lp.kicked, lp.dialed = nil, nil, nil
	lp.mu.Unlock()
	for _, c := range adds {
		ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN | syscall.EPOLLRDHUP), Fd: int32(c.fd)}
		if err := syscall.EpollCtl(lp.epfd, syscall.EPOLL_CTL_ADD, c.fd, &ev); err != nil {
			releaseRconn(c)
			continue
		}
		lp.conns[c.fd] = c
		// Bytes may already be waiting (level-triggered epoll will also
		// report them, but reading now saves a wakeup).
		lp.readReady(c, fr)
	}
	for _, d := range dialed {
		d.rl.dialing = false
		lp.links[d.rl] = struct{}{}
		if d.c != nil {
			ev := syscall.EpollEvent{Events: 0, Fd: int32(d.c.fd)}
			if err := syscall.EpollCtl(lp.epfd, syscall.EPOLL_CTL_ADD, d.c.fd, &ev); err != nil {
				releaseRconn(d.c)
			} else {
				lp.conns[d.c.fd] = d.c
				d.rl.conn = d.c
			}
		}
		lp.pump(d.rl)
	}
	for _, rl := range kicks {
		lp.links[rl] = struct{}{}
		lp.pump(rl)
	}
}

// runDue pumps links whose chaos-delayed frames have matured.
func (lp *evLoop) runDue() {
	if len(lp.waiting) == 0 {
		return
	}
	due := lp.waiting
	lp.waiting = nil // pump may re-park into a fresh list
	now := time.Now()
	for _, rl := range due {
		if len(rl.pending) > 0 && rl.pending[0].readyAt.After(now) {
			lp.waiting = append(lp.waiting, rl) // still parked
			continue
		}
		rl.parked = false
		lp.pump(rl)
	}
}

// park registers rl for a timed wakeup when its head frame matures.
func (lp *evLoop) park(rl *rlink) {
	if rl.parked {
		return
	}
	rl.parked = true
	lp.waiting = append(lp.waiting, rl)
}

// timeoutMs computes how long epoll_wait may sleep: indefinitely unless a
// delayed frame or a read-deadline scan needs a timed wakeup.
func (lp *evLoop) timeoutMs() int {
	var next time.Time
	for _, rl := range lp.waiting {
		if len(rl.pending) > 0 {
			if t := rl.pending[0].readyAt; next.IsZero() || t.Before(next) {
				next = t
			}
		}
	}
	if wt := lp.r.f.cfg.WriteTimeout; wt > 0 {
		for rl := range lp.links {
			if rl.conn != nil && !rl.stalledAt.IsZero() {
				if t := rl.stalledAt.Add(wt); next.IsZero() || t.Before(next) {
					next = t
				}
			}
		}
	}
	if idle := lp.r.f.cfg.ReadIdleTimeout; idle > 0 && len(lp.conns) > 0 {
		if lp.scanAt.IsZero() {
			lp.scanAt = time.Now().Add(scanInterval(idle))
		}
		if next.IsZero() || lp.scanAt.Before(next) {
			next = lp.scanAt
		}
	}
	if next.IsZero() {
		return -1
	}
	ms := time.Until(next).Milliseconds()
	if ms < 1 {
		return 1
	}
	if ms > 60_000 {
		return 60_000
	}
	return int(ms)
}

func scanInterval(idle time.Duration) time.Duration {
	d := idle / 4
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// scanDeadlines enforces read-progress bounds on inbound connections: idle
// links (no frame in progress) are severed after ReadIdleTimeout of silence;
// a frame in progress must complete within two timeouts (header leg + body
// leg) — stamped at its first byte, so trickling bytes cannot re-arm it.
func (lp *evLoop) scanDeadlines() {
	f := lp.r.f
	idle := f.cfg.ReadIdleTimeout
	if idle <= 0 || len(lp.conns) == 0 {
		return
	}
	now := time.Now()
	if !lp.scanAt.IsZero() && now.Before(lp.scanAt) {
		return
	}
	lp.scanAt = now.Add(scanInterval(idle))
	var expired []*rconn
	for _, c := range lp.conns {
		if c.asm == nil || c.closed {
			continue
		}
		if start, mid := c.asm.midFrame(); mid {
			if now.Sub(start) > 2*idle {
				expired = append(expired, c)
			}
		} else if now.Sub(c.lastRead) > idle {
			expired = append(expired, c)
		}
	}
	for _, c := range expired {
		peer := c.peer
		lp.closeConn(c)
		f.linkDown(peer, os.ErrDeadlineExceeded)
	}
}

// scanWriteStalls severs connections whose peer has accepted no bytes for
// WriteTimeout while a flush is blocked — the reactor's write deadline.
func (lp *evLoop) scanWriteStalls() {
	f := lp.r.f
	wt := f.cfg.WriteTimeout
	if wt <= 0 {
		return
	}
	now := time.Now()
	for rl := range lp.links {
		if rl.conn == nil || rl.stalledAt.IsZero() || now.Sub(rl.stalledAt) <= wt {
			continue
		}
		rl.l.bump(func(s *LinkStats) { s.WriteErrors++ })
		lp.teardownWrite(rl)
		f.linkDown(rl.l.peer, os.ErrDeadlineExceeded)
	}
}

// readBudget bounds the bytes one connection may consume per readiness event
// so a firehose peer cannot monopolize its loop; level-triggered epoll
// redelivers the remainder on the next wait.
const readBudget = 1 << 20

// readReady drains the socket into the assembler, handing each read to the
// fabric's shared drain.
func (lp *evLoop) readReady(c *rconn, fr *frame) {
	f := lp.r.f
	budget := readBudget
	for budget > 0 && !c.closed {
		buf := c.asm.writable()
		n, err := syscall.Read(c.fd, buf)
		if n > 0 {
			budget -= n
			c.lastRead = time.Now()
			c.asm.advance(n)
			f.rstats.bytesIn.Add(int64(n))
			frames, err := f.drain(c.in, c.asm, fr)
			f.rstats.framesIn.Add(int64(frames))
			if err != nil { // parse error, or the fabric is closing
				peer := c.peer
				lp.closeConn(c)
				f.linkDown(peer, err)
				return
			}
			if n < len(buf) {
				return // socket likely drained
			}
			continue
		}
		switch err {
		case syscall.EAGAIN:
			return
		case syscall.EINTR:
			continue
		case nil:
			err = io.EOF // n == 0: orderly close
			fallthrough
		default:
			peer := c.peer
			lp.closeConn(c)
			f.linkDown(peer, err)
			return
		}
	}
}

// pumpRounds bounds how many refill/flush cycles one pump may run before
// yielding the loop to other connections (the link re-kicks itself).
const pumpRounds = 16

// pump pushes a link's queued frames toward the wire: drain the mailbox
// through chaos, coalesce into the write buffer, write until the kernel
// stops accepting.
func (lp *evLoop) pump(rl *rlink) {
	f := lp.r.f
	for round := 0; ; round++ {
		lp.refill(rl)
		if !rl.buffered() {
			return
		}
		if rl.conn == nil {
			if !rl.dialing {
				rl.dialing = true
				f.wg.Add(1)
				go lp.dialLink(rl)
			}
			return
		}
		now := time.Now()
		lp.stage(rl, now)
		if rl.woff == len(rl.wbuf) {
			// Nothing writable: all pending frames are chaos-delayed.
			if len(rl.pending) > 0 {
				lp.park(rl)
			}
			return
		}
		switch lp.flush(rl) {
		case flushTorn, flushBlocked:
			return
		}
		if round >= pumpRounds {
			lp.kick(rl) // yield the loop; continue on the next iteration
			return
		}
	}
}

// refill drains the mailbox into rl.pending, applying per-frame chaos
// verdicts exactly like the goroutine engine's writeLoop: drops refund
// credit, duplicates retain, latency defers (serialized, preserving FIFO).
func (lp *evLoop) refill(rl *rlink) {
	f := lp.r.f
	l := rl.l
	for len(rl.pending) < f.cfg.MaxBatchFrames {
		var ok bool
		rl.batch, ok = l.mb.tryTakeBatch(rl.batch[:0], f.cfg.MaxBatchFrames-len(rl.pending))
		if !ok {
			return
		}
		now := time.Now()
		for _, fb := range rl.batch {
			verdict := f.chaos.outbound(l.peer)
			if verdict.drop {
				l.bump(func(s *LinkStats) { s.ChaosDrops++ })
				if fb.Class() == wire.ClassData {
					f.refundData(l)
				}
				fb.Release()
				continue
			}
			if verdict.delay > 0 {
				if rl.delayFront.Before(now) {
					rl.delayFront = now
				}
				rl.delayFront = rl.delayFront.Add(verdict.delay)
			}
			wf := wframe{fb: fb, readyAt: rl.delayFront} // zero (or past): immediately ready
			rl.hold(wf)
			if verdict.dup {
				l.bump(func(s *LinkStats) { s.ChaosDups++ })
				fb.Retain(1)
				rl.hold(wf)
			}
		}
	}
}

// stage copies matured pending frames into the coalesced write buffer (up to
// MaxBatchBytes beyond what is already staged), releasing each frame as its
// bytes move — the write buffer, with its frame bounds, is the retry state.
func (lp *evLoop) stage(rl *rlink, now time.Time) {
	maxBytes := lp.r.f.cfg.MaxBatchBytes
	for len(rl.pending) > 0 && len(rl.wbuf)-rl.woff < maxBytes {
		wf := rl.pending[0]
		if wf.readyAt.After(now) {
			return
		}
		rl.wbuf = append(rl.wbuf, wf.fb.Wire()...)
		rl.bounds = append(rl.bounds, len(rl.wbuf))
		rl.l.held.Add(-int64(len(wf.fb.Bytes())))
		wf.fb.Release()
		rl.pending[0] = wframe{}
		rl.pending = rl.pending[1:]
	}
	if len(rl.pending) == 0 {
		rl.pending = nil // drop the advanced slice's backing array
	}
}

type flushStatus int

const (
	flushDrained flushStatus = iota
	flushBlocked
	flushTorn
)

// flush writes the staged buffer to the socket until it drains or the kernel
// pushes back (EAGAIN arms EPOLLOUT). Frame-sent accounting advances as
// frame bounds are crossed; on error the buffer is trimmed to resend from
// the first frame not fully accepted.
func (lp *evLoop) flush(rl *rlink) flushStatus {
	f := lp.r.f
	l := rl.l
	c := rl.conn
	wrote := false
	var status flushStatus
	for rl.woff < len(rl.wbuf) {
		chunk := rl.wbuf[rl.woff:]
		if f.chaos.partialWritesOn() {
			chunk = chunk[:min(partialWriteChunk, len(chunk))]
		}
		n, err := syscall.Write(c.fd, chunk)
		if n > 0 {
			rl.woff += n
			wrote = true
		}
		if err == nil {
			continue
		}
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN {
			lp.armWrite(c, true)
			if wrote || rl.stalledAt.IsZero() {
				rl.stalledAt = time.Now() // (re)start the stall clock on progress
			}
			status = flushBlocked
			break
		}
		l.bump(func(s *LinkStats) { s.WriteErrors++ })
		lp.accountSent(rl, wrote)
		lp.teardownWrite(rl)
		f.linkDown(l.peer, err)
		return flushTorn
	}
	lp.accountSent(rl, wrote)
	if rl.woff == len(rl.wbuf) {
		rl.wbuf = rl.wbuf[:0]
		rl.woff = 0
		rl.bounds = rl.bounds[:0]
		rl.acked = 0
		rl.stalledAt = time.Time{}
		if c.wantW {
			lp.armWrite(c, false)
		}
	}
	return status
}

// accountSent advances FramesSent/Flushes for frames whose bytes the kernel
// has fully accepted since the last call.
func (lp *evLoop) accountSent(rl *rlink, wrote bool) {
	f := lp.r.f
	accepted := 0
	for i := rl.acked; i < len(rl.bounds) && rl.bounds[i] <= rl.woff; i++ {
		accepted++
	}
	rl.acked += accepted
	if accepted > 0 || wrote {
		rl.l.bump(func(s *LinkStats) {
			s.FramesSent += int64(accepted)
			if wrote {
				s.Flushes++
			}
		})
	}
	if wrote {
		f.rstats.writes.Add(1)
	}
	if accepted > 0 {
		f.flowBroadcast() // queue drained: budget waiters may proceed
	}
}

// teardownWrite retires a link's connection, keeping unaccepted bytes (from
// the first incompletely-sent frame) for resend after reconnect.
func (lp *evLoop) teardownWrite(rl *rlink) {
	if rl.conn != nil {
		lp.closeConn(rl.conn)
		rl.conn = nil
	}
	// Trim fully-accepted frames; a half-sent frame evaporated with the old
	// socket stream, so resend it in full on the fresh one.
	cut := 0
	for _, b := range rl.bounds {
		if b <= rl.woff {
			cut = b
		} else {
			break
		}
	}
	if cut > 0 {
		rl.wbuf = append(rl.wbuf[:0], rl.wbuf[cut:]...)
		nb := rl.bounds[:0]
		for _, b := range rl.bounds {
			if b > cut {
				nb = append(nb, b-cut)
			}
		}
		rl.bounds = nb
	}
	rl.woff = 0
	rl.acked = 0
	rl.stalledAt = time.Time{}
	if rl.buffered() && !rl.dialing {
		rl.dialing = true
		lp.r.f.wg.Add(1)
		go lp.dialLink(rl)
	}
}

// dialLink runs the blocking dial/handshake cycle (with the fabric's backoff
// supervision) in a transient goroutine and hands the fd to the loop.
func (lp *evLoop) dialLink(rl *rlink) {
	f := lp.r.f
	defer f.wg.Done()
	conn, _, retired := f.connect(rl.l)
	if conn == nil {
		return // fabric closing; dialing flag is moot at teardown
	}
	file, fd, err := dupFD(conn)
	if err != nil {
		conn.Close()
		close(retired)
		f.sleep(f.cfg.BackoffBase) // pathological: avoid a hot retry loop
		lp.finishDial(rl, nil)
		return
	}
	lp.finishDial(rl, &rconn{fd: fd, file: file, peer: rl.l.peer, retired: retired, lnk: rl})
}

// armWrite toggles EPOLLOUT interest on an outbound connection.
func (lp *evLoop) armWrite(c *rconn, on bool) {
	if c.wantW == on || c.closed {
		return
	}
	c.wantW = on
	var events uint32
	if on {
		events = uint32(syscall.EPOLLOUT)
	}
	ev := syscall.EpollEvent{Events: events, Fd: int32(c.fd)}
	syscall.EpollCtl(lp.epfd, syscall.EPOLL_CTL_MOD, c.fd, &ev)
}

// closeConn retires one fd: out of the epoll set, file closed (releasing the
// descriptor), watcher released, buffers returned.
func (lp *evLoop) closeConn(c *rconn) {
	if c.closed {
		return
	}
	c.closed = true
	delete(lp.conns, c.fd)
	syscall.EpollCtl(lp.epfd, syscall.EPOLL_CTL_DEL, c.fd, nil)
	releaseRconn(c)
}

// teardown runs at loop exit: every connection is retired, every queued
// handoff cleaned up, and all pending frames released.
func (lp *evLoop) teardown() {
	lp.mu.Lock()
	lp.dead = true
	adds := lp.adds
	dialed := lp.dialed
	lp.adds, lp.kicked, lp.dialed = nil, nil, nil
	lp.mu.Unlock()
	for _, c := range adds {
		releaseRconn(c)
	}
	for _, d := range dialed {
		if d.c != nil {
			releaseRconn(d.c)
		}
	}
	for fd := range lp.conns {
		lp.closeConn(lp.conns[fd])
	}
	for rl := range lp.links {
		for _, wf := range rl.pending {
			rl.l.held.Add(-int64(len(wf.fb.Bytes())))
			wf.fb.Release()
		}
		rl.pending = nil
	}
	lp.closeFDs()
}

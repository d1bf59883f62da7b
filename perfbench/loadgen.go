package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"gaussiancube/internal/gc"
	"gaussiancube/internal/wire"
)

// opKind is the kind of one generated request.
type opKind uint8

const (
	opRoute opKind = iota
	opMulticast
	opBroadcast
)

// op is one generated request. For collectives src is the root.
type op struct {
	kind     opKind
	src, dst gc.NodeID
	dests    []gc.NodeID
}

func appendOp(buf []byte, id uint64, o *op) []byte {
	switch o.kind {
	case opMulticast:
		return wire.AppendMulticastReq(buf, id, &wire.MulticastReq{Root: o.src, Dests: o.dests})
	case opBroadcast:
		return wire.AppendBroadcastReq(buf, id, wire.BroadcastReq{Root: o.src})
	default:
		return wire.AppendRouteReq(buf, id, wire.RouteReq{Src: o.src, Dst: o.dst})
	}
}

// clock is the benchmark's monotonic time base, in nanoseconds.
var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

// sleeper waits with microsecond precision on a timerfd read through
// the runtime's poller, so the waiting goroutine holds no P. The Go
// runtime's own timers wake at millisecond granularity for sub-
// millisecond waits, which would add up to a millisecond of lag to
// every request the generator sends.
type sleeper struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

// newSleeper opens a timerfd; without one the sleeper falls back to
// the runtime's timers.
func newSleeper() *sleeper {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if e != 0 {
		return &sleeper{}
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}
}

// sleep blocks for d nanoseconds.
func (s *sleeper) sleep(d int64) {
	if s.f == nil {
		time.Sleep(time.Duration(d))
		return
	}
	its := itimerspec{value: syscall.NsecToTimespec(d)}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); e != 0 {
		time.Sleep(time.Duration(d))
		return
	}
	if _, err := s.f.Read(s.buf[:]); err != nil {
		time.Sleep(time.Duration(d))
	}
}

func (s *sleeper) close() {
	if s.f != nil {
		s.f.Close()
	}
}

// benchConn is one raw gcwire connection with its read scratch.
type benchConn struct {
	c       net.Conn
	br      *bufio.Reader
	hdr     [wire.HeaderSize]byte
	payload []byte
	res     wire.RouteResult
	cres    wire.CollectiveResult
	ef      wire.ErrorFrame
	// broken marks a connection whose stream state is unknown after an
	// error; the next phase redials it.
	broken atomic.Bool
}

func dialBench(addr string) (*benchConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &benchConn{c: c, br: bufio.NewReaderSize(c, 64<<10), payload: make([]byte, 0, 64<<10)}, nil
}

// read reads one frame; its payload stays in bc.payload until the next
// read.
func (bc *benchConn) read() (wire.Header, error) {
	if _, err := io.ReadFull(bc.br, bc.hdr[:]); err != nil {
		return wire.Header{}, err
	}
	h, err := wire.ParseHeader(bc.hdr[:])
	if err != nil {
		return h, err
	}
	if cap(bc.payload) < int(h.Len) {
		bc.payload = make([]byte, h.Len)
	}
	bc.payload = bc.payload[:h.Len]
	_, err = io.ReadFull(bc.br, bc.payload)
	return h, err
}

// verdict classifies one reply.
type verdict uint8

const (
	vOK      verdict = iota
	vRefused         // backpressure: the server shed the request
	vWrong           // a wrong or malformed answer
)

// judge decodes and checks the reply to o that sits in bc's scratch.
// lo is the newest fault epoch acknowledged when o was sent.
func (bc *benchConn) judge(h wire.Header, o *op, lo uint64, chk *checker) verdict {
	switch h.Type {
	case wire.TypeRouteResult:
		if o.kind != opRoute {
			break
		}
		if err := wire.DecodeRouteResult(bc.payload, &bc.res); err != nil {
			chk.fail("route %d->%d: %v", o.src, o.dst, err)
			return vWrong
		}
		if !chk.route(o.src, o.dst, lo, &bc.res) {
			return vWrong
		}
		return vOK
	case wire.TypeCollectiveResult:
		if o.kind == opRoute {
			break
		}
		if err := wire.DecodeCollectiveResult(bc.payload, &bc.cres); err != nil {
			chk.fail("collective from %d: %v", o.src, err)
			return vWrong
		}
		if !chk.collective(o, lo, &bc.cres) {
			return vWrong
		}
		return vOK
	case wire.TypeError:
		if err := wire.DecodeError(bc.payload, &bc.ef); err != nil {
			chk.fail("error frame: %v", err)
			return vWrong
		}
		switch {
		case bc.ef.Code == wire.CodeBackpressure:
			return vRefused
		case bc.ef.Code == wire.CodeFaultyNode && o.kind == opRoute:
			if chk.faultyEndpoint(o.src, o.dst, lo) {
				return vOK
			}
			return vWrong
		}
		chk.fail("request from %d: server error %d: %s", o.src, bc.ef.Code, bc.ef.Msg)
		return vWrong
	}
	chk.fail("request from %d: reply frame type %d does not answer a kind-%d request", o.src, h.Type, o.kind)
	return vWrong
}

// phaseTag keeps request ids unique across phases on a connection, so
// a late reply can never be matched to a later phase's request.
var phaseTag atomic.Uint64

const (
	tagShift = 40
	pingBit  = 1 << 39
)

// failed counts requests that did not get a correct answer in time.
type failed struct {
	refused, wrong, timeouts, connErrs int64
}

func (f *failed) add(g failed) {
	f.refused += g.refused
	f.wrong += g.wrong
	f.timeouts += g.timeouts
	f.connErrs += g.connErrs
}

func (f failed) total() int64 { return f.refused + f.wrong + f.timeouts + f.connErrs }

// lost is the latency recorded for a request that failed: it misses
// every latency limit.
const lost = math.MaxInt64

// openSpec is one open-loop phase: ops are sent at a fixed rate, op k
// due at start + k/rate, spread round-robin over the connections.
type openSpec struct {
	ops  []op
	rate float64
	// stall, when set, runs on the sender once op k is due, before it is
	// sent (tests).
	stall func(k int)
}

// openRun is the outcome of an open-loop phase. lat[k] is the latency
// of op k from its due time (lost when it failed) and lag[k] how late it
// was sent.
type openRun struct {
	lat, lag []int64
	sent     int
	failed   failed
	// start is op 0's due time on the nowNs clock.
	start int64
	rate  float64
}

// due is op k's due time on the nowNs clock.
func (r *openRun) due(k int) int64 { return r.start + int64(float64(k)*1e9/r.rate) }

// runOpen drives one open-loop phase over conns and waits until every
// sent request is answered or timed out.
func runOpen(conns []*benchConn, spec openSpec, chk *checker) *openRun {
	n := len(spec.ops)
	run := &openRun{lat: make([]int64, n), lag: make([]int64, n), start: nowNs() + int64(2*time.Millisecond), rate: spec.rate}
	tag := phaseTag.Add(1) << tagShift
	due := run.due
	nc := len(conns)

	var sent atomic.Int64
	// lo[k] is the newest acknowledged fault epoch when op k was sent;
	// the reader that checks its answer runs on another goroutine.
	lo := make([]atomic.Uint64, n)
	for k := range run.lat {
		run.lat[k] = -1
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	fails := make([]failed, nc)
	timedOut := make([]bool, nc)
	for ci := range conns {
		bc := conns[ci]
		_ = bc.c.SetReadDeadline(time.Now().Add(time.Duration(due(n)-nowNs()) + 20*time.Second))
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			f := &fails[ci]
			pong := false
			var got, want int64 = 0, -1
			for {
				if pong && got == want {
					return
				}
				h, err := bc.read()
				if err != nil {
					bc.broken.Store(true)
					var ne net.Error
					timedOut[ci] = errors.As(err, &ne) && ne.Timeout()
					return
				}
				if h.ID&^(1<<tagShift-1) != tag {
					chk.fail("reply id %#x belongs to another phase", h.ID)
					f.wrong++
					continue
				}
				if h.ID&pingBit != 0 {
					pong = true
					<-done
					want = (sent.Load() - int64(ci) + int64(nc) - 1) / int64(nc)
					if want < 0 {
						want = 0
					}
					continue
				}
				k := int(h.ID & (pingBit - 1))
				t := nowNs()
				switch bc.judge(h, &spec.ops[k], lo[k].Load(), chk) {
				case vOK:
					run.lat[k] = t - due(k)
				case vRefused:
					f.refused++
					run.lat[k] = lost
				default:
					f.wrong++
					run.lat[k] = lost
				}
				got++
			}
		}(ci)
	}

	// The sender: one goroutine for all connections.
	func() {
		sl := newSleeper()
		defer sl.close()
		bufs := make([][]byte, nc)
		k := 0
		for k < n {
			now := nowNs()
			if d := due(k); now < d {
				sl.sleep(d - now)
				continue
			}
			first := k
			for k < n && due(k) <= now {
				if spec.stall != nil {
					spec.stall(k)
				}
				lo[k].Store(chk.acked.Load())
				bufs[k%nc] = appendOp(bufs[k%nc], tag|uint64(k), &spec.ops[k])
				k++
			}
			t := nowNs()
			for i := first; i < k; i++ {
				run.lag[i] = t - due(i)
			}
			for ci, b := range bufs {
				if len(b) == 0 {
					continue
				}
				if _, err := conns[ci].c.Write(b); err != nil {
					conns[ci].broken.Store(true)
				}
				bufs[ci] = b[:0]
			}
			sent.Store(int64(k))
		}
		run.sent = k
		for ci, bc := range conns {
			_, _ = bc.c.Write(wire.AppendEmpty(nil, wire.TypePing, tag|pingBit|uint64(ci)))
		}
	}()
	close(done)
	wg.Wait()

	for i := range fails {
		run.failed.add(fails[i])
	}
	// A request sent and never answered timed out, or died with its
	// connection.
	for k := 0; k < run.sent; k++ {
		if run.lat[k] >= 0 {
			continue
		}
		run.lat[k] = lost
		if timedOut[k%nc] {
			run.failed.timeouts++
		} else {
			run.failed.connErrs++
		}
	}
	run.lat, run.lag = run.lat[:run.sent], run.lag[:run.sent]
	return run
}

// closedRun is the outcome of a closed-loop phase.
type closedRun struct {
	done   int64 // completions before the phase ended
	sent   int64
	dur    time.Duration
	failed failed
}

// rps is the completion rate over the phase.
func (r *closedRun) rps() float64 { return float64(r.done) / r.dur.Seconds() }

// runClosed keeps window requests in flight on every connection for
// dur, or until gen runs out, counting completions. gen(ci) makes the
// next request for connection ci. Each answered request's replacement is
// queued, and the queue is written once the replies already received are
// handled and either a quarter of the window is queued or under half of
// it is still at the server: the server never runs dry, and the
// generator makes a few large writes rather than one per reply, which
// would make its own system calls the limit on the rate measured.
func runClosed(conns []*benchConn, gen func(ci int) (op, bool), window int, dur time.Duration, chk *checker) *closedRun {
	tag := phaseTag.Add(1) << tagShift
	run := &closedRun{dur: dur}
	start := nowNs()
	end := start + int64(dur)
	fails := make([]failed, len(conns))
	dones := make([]int64, len(conns))
	sents := make([]int64, len(conns))
	var wg sync.WaitGroup
	for ci := range conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			bc := conns[ci]
			_ = bc.c.SetReadDeadline(time.Now().Add(dur + 20*time.Second))
			f := &fails[ci]
			slots := make([]op, window)
			los := make([]uint64, window)
			var wbuf []byte
			inflight := 0
			for s := range slots {
				o, ok := gen(ci)
				if !ok {
					break
				}
				slots[s] = o
				los[s] = chk.acked.Load()
				wbuf = appendOp(wbuf, tag|uint64(s), &slots[s])
				inflight++
			}
			sents[ci] = int64(inflight)
			if _, err := bc.c.Write(wbuf); err != nil {
				bc.broken.Store(true)
				f.connErrs += int64(inflight)
				return
			}
			wbuf = wbuf[:0]
			queued, over := 0, false
			for inflight > 0 {
				h, err := bc.read()
				if err != nil {
					bc.broken.Store(true)
					f.connErrs += int64(inflight)
					break
				}
				inflight--
				s := int(h.ID & 0xffff)
				if h.ID&^(1<<tagShift-1) != tag || s >= window {
					chk.fail("reply id %#x does not match a request", h.ID)
					f.wrong++
				} else {
					switch bc.judge(h, &slots[s], los[s], chk) {
					case vOK:
					case vRefused:
						f.refused++
					default:
						f.wrong++
					}
				}
				// The clock is read on every eighth reply only: read on
				// every reply, it took 8% of the generator's time here.
				if dones[ci]&7 == 0 {
					over = nowNs() >= end
				}
				if !over {
					dones[ci]++
					if o, ok := gen(ci); ok {
						slots[s] = o
						los[s] = chk.acked.Load()
						wbuf = appendOp(wbuf, tag|uint64(s), &slots[s])
						inflight++
						queued++
						sents[ci]++
					}
				}
				if queued > 0 && bc.br.Buffered() == 0 && (queued >= window/4 || inflight-queued < window/2) {
					if _, err := bc.c.Write(wbuf); err != nil {
						bc.broken.Store(true)
						f.connErrs += int64(inflight)
						break
					}
					wbuf, queued = wbuf[:0], 0
				}
			}
		}(ci)
	}
	wg.Wait()
	for ci := range conns {
		run.failed.add(fails[ci])
		run.done += dones[ci]
		run.sent += sents[ci]
	}
	return run
}

// probe sends ops one at a time on bc and returns each one's latency
// in ns (lost for a failed one).
func probe(bc *benchConn, ops []op, chk *checker) ([]int64, failed) {
	tag := phaseTag.Add(1) << tagShift
	lat := make([]int64, len(ops))
	var f failed
	var buf []byte
	_ = bc.c.SetReadDeadline(time.Now().Add(time.Duration(len(ops))*100*time.Millisecond + 20*time.Second))
	for k := range ops {
		lo := chk.acked.Load()
		buf = appendOp(buf[:0], tag|uint64(k), &ops[k])
		t := nowNs()
		if _, err := bc.c.Write(buf); err != nil {
			bc.broken.Store(true)
			f.connErrs += int64(len(ops) - k)
			return lat[:k], f
		}
		h, err := bc.read()
		if err != nil {
			bc.broken.Store(true)
			f.connErrs += int64(len(ops) - k)
			return lat[:k], f
		}
		lat[k] = nowNs() - t
		if h.ID != tag|uint64(k) {
			chk.fail("probe reply id %#x, want %#x", h.ID, tag|uint64(k))
			f.wrong++
			lat[k] = lost
			continue
		}
		switch bc.judge(h, &ops[k], lo, chk) {
		case vOK:
		case vRefused:
			f.refused++
			lat[k] = lost
		default:
			f.wrong++
			lat[k] = lost
		}
	}
	return lat, f
}

func (f failed) String() string {
	return fmt.Sprintf("refused=%d wrong=%d timeouts=%d conn_errors=%d", f.refused, f.wrong, f.timeouts, f.connErrs)
}

package main

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"gaussiancube/internal/gc"
	"gaussiancube/internal/wire"
)

// fakeServer answers every route request with the one-hop path 0->1
// after a fixed service time, and stops reading for stallLen at the
// start of every stallEvery period (measured from its start), the way a
// server pausing for a collector or a descheduled thread would.
type fakeServer struct {
	ln                   net.Listener
	service              time.Duration
	stallEvery, stallLen time.Duration
	t0                   time.Time
}

func startFake(t *testing.T, service, stallEvery, stallLen time.Duration) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, service: service, stallEvery: stallEvery, stallLen: stallLen, t0: time.Now()}
	go fs.serve()
	t.Cleanup(func() { ln.Close() })
	return fs
}

func (fs *fakeServer) serve() {
	for {
		c, err := fs.ln.Accept()
		if err != nil {
			return
		}
		go fs.handle(c)
	}
}

func (fs *fakeServer) handle(c net.Conn) {
	defer c.Close()
	var hdr [wire.HeaderSize]byte
	payload := make([]byte, 64)
	var req wire.RouteReq
	var out []byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		h, err := wire.ParseHeader(hdr[:])
		if err != nil {
			return
		}
		payload = payload[:h.Len]
		if _, err := io.ReadFull(c, payload); err != nil {
			return
		}
		if fs.stallEvery > 0 {
			if into := time.Since(fs.t0) % fs.stallEvery; into < fs.stallLen {
				time.Sleep(fs.stallLen - into)
			}
		}
		for until := time.Now().Add(fs.service); time.Now().Before(until); {
		}
		switch h.Type {
		case wire.TypePing:
			out = wire.AppendPong(out[:0], h.ID, 0)
		case wire.TypeRouteReq:
			if err := wire.DecodeRouteReq(payload, &req); err != nil {
				return
			}
			out = wire.AppendRouteResult(out[:0], h.ID, &wire.RouteResult{
				Outcome: 1, Hops: 1, Path: []gc.NodeID{req.Src, req.Dst},
			})
		default:
			return
		}
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

func fakeConns(t *testing.T, fs *fakeServer) []*benchConn {
	t.Helper()
	var conns []*benchConn
	for i := 0; i < 2; i++ {
		bc, err := dialBench(fs.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bc.c.Close() })
		conns = append(conns, bc)
	}
	return conns
}

func oneHopOps(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opRoute, src: 0, dst: 1}
	}
	return ops
}

func testChecker() *checker {
	cube := gc.New(4, 1)
	return newChecker(cube, newEpochBook(cube), 1)
}

func checkAnswered(t *testing.T, run *openRun, chk *checker, n int) {
	t.Helper()
	if run.sent != n || run.failed.total() != 0 || chk.wrong.Load() != 0 {
		t.Fatalf("sent %d of %d, failed %v, wrong answers %d (%s)", run.sent, n, run.failed, chk.wrong.Load(), chk.firstError())
	}
}

// Server stalls land in the round's p99 the benchmark reports, because
// each request is timed from when it was due: the requests due during a
// stall wait for it even though the generator kept sending on schedule.
// A closed-loop client would have sent nothing during the stall and
// recorded one slow request per connection.
func TestOpenLoopCountsServerStalls(t *testing.T) {
	const rate, n = 10000.0, 10000
	stall := 10 * time.Millisecond
	fs := startFake(t, 20*time.Microsecond, 100*time.Millisecond, stall)
	chk := testChecker()
	run := runOpen(fakeConns(t, fs), openSpec{ops: oneHopOps(n), rate: rate}, chk)
	checkAnswered(t, run, chk, n)

	// Every request due inside a stall waits at least until it ends.
	base := fs.t0.Sub(clockBase).Nanoseconds()
	var inside int
	for k := 0; k < n; k++ {
		into := time.Duration(run.due(k)-base) % fs.stallEvery
		if into < stall-2*time.Millisecond && into > time.Millisecond {
			inside++
			if left := int64(stall - into - time.Millisecond); run.lat[k] < left {
				t.Fatalf("op %d due %v into a stall has latency %v, want at least %v", k, into, time.Duration(run.lat[k]), time.Duration(left))
			}
		}
	}
	if inside < n/20 {
		t.Fatalf("only %d requests fell due inside stalls", inside)
	}
	if p99, min := nsQuantiles(run.lat, 0.99)[0], float64(stall.Microseconds())/2; p99 < min {
		t.Fatalf("p99 %.0fus does not show the %v stalls (want >= %.0fus)", p99, stall, min)
	}
}

// A stall of the generator itself shows as send lag, and the requests
// it delayed are still timed from their due time.
func TestOpenLoopCountsGeneratorStalls(t *testing.T) {
	const rate, n = 10000.0, 10000
	stall := 30 * time.Millisecond
	fs := startFake(t, 20*time.Microsecond, 0, 0)
	chk := testChecker()
	spec := openSpec{ops: oneHopOps(n), rate: rate, stall: func(k int) {
		if k == n/2 {
			time.Sleep(stall)
		}
	}}
	run := runOpen(fakeConns(t, fs), spec, chk)
	checkAnswered(t, run, chk, n)

	for k := 0; k < n; k++ {
		if run.lat[k] < run.lag[k] {
			t.Fatalf("op %d: latency %v below its send lag %v", k, time.Duration(run.lat[k]), time.Duration(run.lag[k]))
		}
	}
	if lag := run.lag[n/2]; lag < int64(stall)*9/10 {
		t.Fatalf("op due at the stall was sent %v late, want about %v", time.Duration(lag), stall)
	}
	// The stall delays about 300 requests of 10000, so it sets the
	// phase's p99 send lag and p99 latency.
	q := nsQuantiles(run.lag, 0.99)
	l := nsQuantiles(run.lat, 0.99)
	if min := float64(stall.Microseconds()) / 3; q[0] < min || l[0] < min {
		t.Fatalf("p99 lag %.0fus, p99 latency %.0fus; want both >= %.0fus", q[0], l[0], min)
	}
}

// A reply computed under a fault epoch older than the one acknowledged
// before its request was sent is a stale answer, and counts as wrong even
// though its path is valid in that older epoch. The fake server stamps
// every reply with epoch 0.
func TestStaleEpochIsWrong(t *testing.T) {
	const n = 200
	fs := startFake(t, 0, 0, 0)
	chk := testChecker()
	chk.book.put(1, chk.book.get(0))
	chk.sent.Store(1)
	chk.acked.Store(1)
	run := runOpen(fakeConns(t, fs), openSpec{ops: oneHopOps(n), rate: 10000}, chk)
	if run.sent != n || run.failed.wrong != n || chk.wrong.Load() != n {
		t.Fatalf("sent %d, failed %v, wrong answers %d; want all %d stale answers wrong", run.sent, run.failed, chk.wrong.Load(), n)
	}
	if !strings.Contains(chk.firstError(), "epoch 1 was acknowledged") {
		t.Fatalf("first error %q does not name the stale epoch", chk.firstError())
	}

	// A cluster member may answer from behind only when it marks the
	// answer degraded; the fake's answers are not.
	chk = testChecker()
	chk.cluster = true
	chk.book.put(1, chk.book.get(0))
	chk.sent.Store(1)
	chk.acked.Store(1)
	if lat, f := probe(fakeConns(t, fs)[0], oneHopOps(10), chk); f.wrong != 10 || len(lat) != 10 {
		t.Fatalf("cluster: failed %v over %d replies; want 10 stale answers wrong", f, len(lat))
	}
}

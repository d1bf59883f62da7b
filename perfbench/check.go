package main

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/wire"
)

// epochBook maps every fault epoch the benchmark can observe to the
// frozen fault set the server holds in that epoch. The benchmark is the
// only writer of faults, so it knows each epoch's content in advance.
type epochBook struct {
	mu   sync.RWMutex
	sets map[uint64]*fault.Set
}

func newEpochBook(cube *gc.Cube) *epochBook {
	return &epochBook{sets: map[uint64]*fault.Set{0: fault.NewSet(cube).Freeze()}}
}

func (b *epochBook) put(epoch uint64, s *fault.Set) {
	b.mu.Lock()
	b.sets[epoch] = s
	b.mu.Unlock()
}

func (b *epochBook) get(epoch uint64) *fault.Set {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.sets[epoch]
}

// checker verifies every answer against the fault set of the epoch the
// answer reports. It is safe for concurrent use by connection readers.
type checker struct {
	cube *gc.Cube
	book *epochBook
	seed uint64
	// links[v] has bit d set when node v has a link in dimension d.
	links []uint32

	// acked and sent bound the epoch a reply without an epoch stamp (an
	// error frame) may have been computed under.
	acked atomic.Uint64
	sent  atomic.Uint64
	// cluster is set when replies may come from a member that has not
	// yet caught up with the newest acknowledged epoch; such an answer
	// must say so by being degraded.
	cluster bool

	bfsLeft  atomic.Int64 // remaining BFS reachability checks
	bfsDone  atomic.Int64
	wrong    atomic.Int64
	firstErr atomic.Pointer[string]
}

func newChecker(cube *gc.Cube, book *epochBook, seed int64) *checker {
	c := &checker{cube: cube, book: book, seed: uint64(seed), links: make([]uint32, cube.Nodes())}
	for v := range c.links {
		for _, d := range cube.LinkDims(gc.NodeID(v)) {
			c.links[v] |= 1 << d
		}
	}
	c.bfsLeft.Store(256)
	return c
}

func (c *checker) fail(format string, args ...any) bool {
	c.wrong.Add(1)
	msg := fmt.Sprintf(format, args...)
	c.firstErr.CompareAndSwap(nil, &msg)
	return false
}

// firstError returns the first wrong answer seen, or "".
func (c *checker) firstError() string {
	if p := c.firstErr.Load(); p != nil {
		return *p
	}
	return ""
}

// route checks one route reply to a request sent once epoch lo was
// acknowledged. The reply's epoch must not be older than lo: the server
// acknowledges a fault batch only after every shard has swapped to it,
// so an older epoch means a stale answer. A delivered path must run from
// src to dst over cube links and avoid every fault of its epoch; a
// verdict of undeliverable is checked against BFS reachability on a
// seeded sample.
func (c *checker) route(src, dst gc.NodeID, lo uint64, r *wire.RouteResult) bool {
	fs := c.book.get(r.Epoch)
	if fs == nil {
		return c.fail("route %d->%d: reply names unknown epoch %d", src, dst, r.Epoch)
	}
	if !c.fresh(r.Epoch, lo, core.Outcome(r.Outcome) == core.OutcomeDeliveredDegraded) {
		return c.fail("route %d->%d: answered at epoch %d, but epoch %d was acknowledged before it was sent", src, dst, r.Epoch, lo)
	}
	switch core.Outcome(r.Outcome) {
	case core.OutcomeDelivered, core.OutcomeDeliveredDegraded:
		return c.path(src, dst, fs, r)
	case core.OutcomeUndeliverable, core.OutcomeUndeliverablePartitioned:
		if fs.NodeFaulty(src) || fs.NodeFaulty(dst) {
			return true
		}
		if mix64(c.seed^uint64(src)<<32^uint64(dst))%4 != 0 || c.bfsLeft.Add(-1) < 0 {
			return true
		}
		c.bfsDone.Add(1)
		if reachable(c.cube, fs, src, dst) {
			return c.fail("route %d->%d: verdict %s at epoch %d but dst is reachable", src, dst, core.Outcome(r.Outcome), r.Epoch)
		}
		return true
	default:
		return c.fail("route %d->%d: unexpected outcome %s", src, dst, core.Outcome(r.Outcome))
	}
}

// fresh reports whether an answer at epoch may reply to a request sent
// once epoch lo was acknowledged. Only a cluster member may answer from
// behind, and only with an answer it marks degraded.
func (c *checker) fresh(epoch, lo uint64, degraded bool) bool {
	return epoch >= lo || (c.cluster && degraded)
}

func (c *checker) path(src, dst gc.NodeID, fs *fault.Set, r *wire.RouteResult) bool {
	p := r.Path
	if len(p) == 0 || p[0] != src || p[len(p)-1] != dst {
		return c.fail("route %d->%d: path %v does not join the endpoints", src, dst, p)
	}
	if int(r.Hops) != len(p)-1 {
		return c.fail("route %d->%d: %d hops reported for a %d-node path", src, dst, r.Hops, len(p))
	}
	if fs.NodeFaulty(src) {
		return c.fail("route %d->%d: delivered from a faulty source at epoch %d", src, dst, r.Epoch)
	}
	faulty := fs.Count() > 0
	for i := 1; i < len(p); i++ {
		u, v := p[i-1], p[i]
		x := uint32(u ^ v)
		if bits.OnesCount32(x) != 1 {
			return c.fail("route %d->%d: hop %d->%d is not a cube link", src, dst, u, v)
		}
		d := uint(bits.TrailingZeros32(x))
		if c.links[u]&x == 0 {
			return c.fail("route %d->%d: hop %d->%d uses absent dimension %d", src, dst, u, v, d)
		}
		if faulty && (fs.NodeFaulty(v) || fs.LinkFaulty(u, d)) {
			return c.fail("route %d->%d: hop %d->%d crosses a fault of epoch %d", src, dst, u, v, r.Epoch)
		}
	}
	return true
}

// faultyEndpoint checks a faulty-endpoint refusal: src or dst must be
// faulty in some epoch the server could have served the request under,
// between lo (acknowledged when it was sent) and the newest epoch
// requested by the time its reply arrived.
func (c *checker) faultyEndpoint(src, dst gc.NodeID, lo uint64) bool {
	hi := c.sent.Load()
	for e := lo; e <= hi; e++ {
		if fs := c.book.get(e); fs != nil && (fs.NodeFaulty(src) || fs.NodeFaulty(dst)) {
			return true
		}
	}
	return c.fail("route %d->%d: refused as faulty endpoint, but neither is faulty in epochs %d..%d", src, dst, lo, hi)
}

// collective checks a broadcast or multicast reply to a request sent
// once epoch lo was acknowledged: its epoch is not older than lo, every
// requested destination is accounted for exactly once, and the tallies
// add up.
func (c *checker) collective(o *op, lo uint64, r *wire.CollectiveResult) bool {
	if c.book.get(r.Epoch) == nil {
		return c.fail("collective from %d: reply names unknown epoch %d", o.src, r.Epoch)
	}
	if !c.fresh(r.Epoch, lo, r.Flags&wire.CollectiveFlagDegradedEpoch != 0) {
		return c.fail("collective from %d: answered at epoch %d, but epoch %d was acknowledged before it was sent", o.src, r.Epoch, lo)
	}
	want := c.cube.Nodes() - 1
	if o.kind == opMulticast {
		want = len(o.dests)
	}
	if r.Origin != o.src {
		return c.fail("collective from %d: reply names origin %d", o.src, r.Origin)
	}
	if len(r.Dests) != want || int(r.Delivered+r.Degraded+r.Unreached) != want {
		return c.fail("collective from %d: delivered %d + degraded %d + unreached %d over %d records, want %d destinations",
			o.src, r.Delivered, r.Degraded, r.Unreached, len(r.Dests), want)
	}
	var del, deg, un uint32
	for i, d := range r.Dests {
		if o.kind == opMulticast && d.Dest != o.dests[i] {
			return c.fail("collective from %d: record %d names %d, requested %d", o.src, i, d.Dest, o.dests[i])
		}
		switch core.Outcome(d.Outcome) {
		case core.OutcomeDelivered:
			del++
		case core.OutcomeDeliveredDegraded:
			deg++
		default:
			un++
		}
	}
	if del != r.Delivered || deg != r.Degraded || un != r.Unreached {
		return c.fail("collective from %d: records tally %d/%d/%d, header says %d/%d/%d",
			o.src, del, deg, un, r.Delivered, r.Degraded, r.Unreached)
	}
	return true
}

// reachable runs a BFS from src over the healthy part of the cube.
func reachable(cube *gc.Cube, fs *fault.Set, src, dst gc.NodeID) bool {
	seen := make([]bool, cube.Nodes())
	queue := []gc.NodeID{src}
	seen[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			return true
		}
		for _, d := range cube.LinkDims(u) {
			v := u ^ (1 << d)
			if !seen[v] && !fs.NodeFaulty(v) && !fs.LinkFaulty(u, d) {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return false
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

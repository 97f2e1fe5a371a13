package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/cam"
	"repro/internal/mempool"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Layer micro-loops. Each is shaped by what the traced runs measured:
// the event-heap depths are the traced high-water marks of fig2a and
// fattree4k (sim.pending_hw), and the CAM holds as many lines as the
// traced run's peak SAQs per port.
const (
	shallowHeap = 730
	deepHeap    = 3900
	microReps   = 7
)

// sink keeps loop results alive so the compiler cannot drop the work.
var sink uint64

// xorshift is a tiny deterministic generator for loop inputs.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func newXorshift(seed int64) *xorshift {
	x := xorshift(uint64(seed)*0x9E3779B97F4A7C15 | 1)
	return &x
}

// medianOf runs f reps times and returns the median of its results.
func medianOf(reps int, f func() float64) float64 {
	v := make([]float64, reps)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// schedPopNs is the hold model on sim.Engine: depth events pending,
// and each dispatched event schedules one successor with ScheduleArg,
// so every step is one pop plus one push at a constant heap depth.
// Gaps are 1–100 ns, the scale of link latency plus serialization.
func schedPopNs(depth int, seed int64) float64 {
	const steps = 300_000
	rng := newXorshift(seed)
	gap := func() sim.Time { return sim.Time(1+rng.next()%100) * sim.Nanosecond }
	e := sim.NewEngine()
	fired := 0
	var hold func(any)
	hold = func(any) {
		fired++
		if fired == steps {
			e.Stop()
			return
		}
		e.ScheduleArg(e.Now()+gap(), hold, nil)
	}
	for i := 0; i < depth; i++ {
		e.ScheduleArg(gap(), hold, nil)
	}
	t0 := time.Now()
	e.Run(sim.Time(math.MaxInt64))
	return float64(time.Since(t0).Nanoseconds()) / steps
}

// camMatchNs times cam.Table.Match on an 8-line table holding lines
// allocated paths, against routes of which about half match a line.
func camMatchNs(lines int, seed int64) float64 {
	const calls, routes = 1_000_000, 64
	lines = min(max(lines, 1), 8)
	rng := newXorshift(seed)
	t := cam.New(8)
	var paths []pkt.Path
	for len(paths) < lines {
		n := 1 + int(rng.next()%4)
		turns := make([]pkt.Turn, n)
		for i := range turns {
			turns[i] = pkt.Turn(rng.next() % 8)
		}
		p := pkt.PathOf(turns...)
		if _, dup := t.Lookup(p); dup {
			continue
		}
		t.Allocate(p)
		paths = append(paths, p)
	}
	rs := make([]pkt.Route, routes)
	for i := range rs {
		r := make(pkt.Route, 6)
		for j := range r {
			r[j] = pkt.Turn(rng.next() % 8)
		}
		if i%2 == 0 { // steer every other route through a stored path
			p := paths[rng.next()%uint64(len(paths))]
			for j := 0; j < p.Len(); j++ {
				r[1+j] = p.Turn(j)
			}
		}
		rs[i] = r
	}
	hits := 0
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if _, ok := t.Match(rs[i%routes], 1); ok {
			hits++
		}
	}
	d := time.Since(t0)
	sink += uint64(hits)
	return float64(d.Nanoseconds()) / calls
}

// pushPopNs times one mempool.Queue Push plus Pop (and the resident
// release that ends a packet's stay) on a queue holding 16 packets.
func pushPopNs() float64 {
	const steps, fill, size = 2_000_000, 16, 64
	q := mempool.NewQueue(mempool.NewPool(128*1024), 0)
	for i := 0; i < fill; i++ {
		q.Push(size, nil)
	}
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		q.Push(size, nil)
		e := q.Pop()
		q.ReleaseResident(e.Size)
	}
	d := time.Since(t0)
	sink += uint64(q.Packets())
	return float64(d.Nanoseconds()) / steps
}

// calibNs times a fixed integer loop: it moves with the machine, not
// with the code, so it tells drift apart from a change.
func calibNs() float64 {
	x := xorshift(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 1<<22; i++ {
		x.next()
	}
	d := time.Since(t0)
	sink += uint64(x)
	return float64(d.Nanoseconds())
}

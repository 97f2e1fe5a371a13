package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// Cello models the I/O workload of the HP Labs cello system the paper
// replayed (Section 4.2): a timesharing machine whose hosts issue
// read/write requests against 23 disks. The original 1999 traces are
// not distributable, so this generator synthesizes a statistically
// similar load (see DESIGN.md §5):
//
//   - a fixed set of disk endpoints (the last Disks host IDs);
//   - Zipf-distributed disk popularity (storage access is skewed, so
//     transient congestion trees form at popular disks);
//   - ON/OFF bursty arrivals per host (I/O comes in bursts separated
//     by think time, which is what makes time compression interesting);
//   - writes (2/3 of requests, cello being write-heavy) send bulk data
//     and get a small acknowledgment; reads send a small command and
//     get a bulk reply; transfer sizes are log-normal around 8 KB,
//     capped at 64 KB.
//
// The paper applies a time compression factor to model faster devices;
// Compression divides every generated gap.
type Cello struct {
	// Disks is the number of storage endpoints (23 in cello).
	Disks int
	// Compression is the paper's trace time-compression factor.
	Compression float64
	// Duration bounds request generation.
	Duration sim.Time
	// Seed makes the run reproducible.
	Seed int64

	// BurstMean is the mean number of requests per ON burst.
	BurstMean float64
	// ThinkTime is the mean OFF gap between bursts before compression.
	ThinkTime sim.Time
	// ServiceTime is the mean disk service latency per request.
	ServiceTime sim.Time
}

// DefaultCello returns the model parameters used by the experiments,
// calibrated so the offered load matches the paper's Figure 3 range:
// roughly 8 bytes/ns aggregate at compression 20 and 16 bytes/ns at
// compression 40 (a timesharing system's I/O is sparse in real time —
// that is why the paper compresses it at all; at compression 1 a
// 800 µs window sees almost no traffic).
func DefaultCello(compression float64) Cello {
	return Cello{
		Disks:       23,
		Compression: compression,
		Duration:    800 * sim.Microsecond,
		Seed:        7,
		BurstMean:   10,
		ThinkTime:   8 * sim.Millisecond,
		ServiceTime: 2 * sim.Microsecond,
	}
}

// Install schedules the workload.
func (c Cello) Install(net Network) error {
	if c.Disks <= 0 || c.Disks >= net.Hosts() {
		return fmt.Errorf("traffic: %d disks on a %d-host network", c.Disks, net.Hosts())
	}
	// Every gap the generator draws is around ThinkTime or shorter.
	if err := checkCompression(c.Compression, c.ThinkTime); err != nil {
		return err
	}
	if c.Duration <= 0 {
		return fmt.Errorf("traffic: duration %v", c.Duration)
	}
	hosts := net.Hosts() - c.Disks
	diskID := func(i int) int { return hosts + i }
	// The popularity ranking is global: hot disks are hot for every
	// host, which is what lets congestion trees form at their ports.
	perm := rand.New(rand.NewSource(c.Seed)).Perm(c.Disks)

	for h := 0; h < hosts; h++ {
		h := h
		hv := hostView(net, h)
		rng := rand.New(rand.NewSource(c.Seed + int64(h)*6151))
		zipf := newZipf(rng, perm, 1.6)
		compress := func(t sim.Time) sim.Time {
			return sim.Time(float64(t) / c.Compression)
		}
		var burst func(left int)
		var think func()
		burst = func(left int) {
			if hv.Now() >= c.Duration {
				return
			}
			disk := diskID(zipf())
			// cello was a write-heavy timesharing system (news/logging
			// partitions); bulk writes are what converge into hot disks
			// and form congestion trees inside the fabric.
			read := rng.Float64() < 1.0/3.0
			size := transferSize(rng)
			// The disk's response runs on the disk's own engine
			// (scheduleOn mailboxes it in sharded runs); the reply
			// injection itself must use the disk's view, resolved here
			// once rather than per reply.
			dv := hostView(net, disk)
			if read {
				// Small command to the disk; bulk reply later.
				hv.Inject(h, disk, 512)
				svc := c.ServiceTime/2 + sim.Time(rng.Int63n(int64(c.ServiceTime)))
				scheduleOn(net, h, disk, hv.Now()+compress(svc), func() {
					dv.Inject(disk, h, size)
				})
			} else {
				// Bulk write; small acknowledgment later.
				hv.Inject(h, disk, size)
				svc := c.ServiceTime/2 + sim.Time(rng.Int63n(int64(c.ServiceTime)))
				scheduleOn(net, h, disk, hv.Now()+compress(svc), func() {
					dv.Inject(disk, h, 64)
				})
			}
			if left > 1 {
				// Requests within a burst are closely spaced.
				gap := sim.Time(rng.ExpFloat64() * 1.5 * float64(sim.Microsecond))
				hv.Schedule(hv.Now()+compress(gap), func() { burst(left - 1) })
			} else {
				think()
			}
		}
		think = func() {
			if hv.Now() >= c.Duration {
				return
			}
			off := sim.Time(rng.ExpFloat64() * float64(c.ThinkTime))
			n := 1 + int(rng.ExpFloat64()*c.BurstMean)
			hv.Schedule(hv.Now()+compress(off), func() { burst(n) })
		}
		// Random initial phase so hosts do not synchronize.
		hv.Schedule(compress(sim.Time(rng.Int63n(int64(c.ThinkTime)))), think)
	}
	return nil
}

// transferSize draws a log-normal bulk transfer size around 8 KB,
// rounded to 512-byte sectors and capped at 64 KB.
func transferSize(rng *rand.Rand) int {
	v := math.Exp(rng.NormFloat64()*0.9 + math.Log(8192))
	size := int(v/512) * 512
	if size < 512 {
		size = 512
	}
	if size > 64*1024 {
		size = 64 * 1024
	}
	return size
}

// newZipf returns a sampler with Zipf(s) popularity over the given rank
// order (perm[0] is the most popular item).
func newZipf(rng *rand.Rand, perm []int, s float64) func() int {
	n := len(perm)
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		total += 1 / math.Pow(float64(i+1), s)
		weights[i] = total
	}
	return func() int {
		x := rng.Float64() * total
		i := sort.SearchFloat64s(weights, x)
		if i >= n {
			i = n - 1
		}
		return perm[i]
	}
}

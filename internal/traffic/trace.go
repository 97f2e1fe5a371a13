package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Record is one message of a trace file.
type Record struct {
	T    sim.Time // generation time
	Src  int
	Dst  int
	Size int // bytes
}

// Trace is a time-ordered message list. Real I/O traces (such as the
// HP cello traces the paper used) can be converted to this format and
// replayed with a compression factor.
type Trace []Record

// The text format: one record per line, `<time_ns> <src> <dst> <bytes>`,
// '#' comments and blank lines ignored.
const traceHeader = "# recn-trace v1"

// WriteTrace writes the trace in the text format.
func WriteTrace(w io.Writer, tr Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, traceHeader); err != nil {
		return err
	}
	for _, r := range tr {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", int64(r.T)/int64(sim.Nanosecond), r.Src, r.Dst, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses the text format.
func ReadTrace(r io.Reader) (Trace, error) {
	var tr Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var tNanos int64
		var rec Record
		if _, err := fmt.Sscanf(text, "%d %d %d %d", &tNanos, &rec.Src, &rec.Dst, &rec.Size); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %w", line, err)
		}
		if tNanos < 0 || rec.Size <= 0 {
			return nil, fmt.Errorf("traffic: trace line %d: invalid record %q", line, text)
		}
		rec.T = sim.Time(tNanos) * sim.Nanosecond
		tr = append(tr, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Sorted reports whether the trace is in nondecreasing time order.
func (tr Trace) Sorted() bool {
	return sort.SliceIsSorted(tr, func(i, j int) bool { return tr[i].T < tr[j].T })
}

// Sort orders the trace by time (stable, preserving same-time order).
func (tr Trace) Sort() {
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].T < tr[j].T })
}

// Replay installs the trace on a network, dividing timestamps by the
// compression factor (the paper's mechanism for modeling faster
// devices).
type Replay struct {
	Trace       Trace
	Compression float64
}

// Install schedules every record.
func (rp Replay) Install(net Network) error {
	if !rp.Trace.Sorted() {
		return fmt.Errorf("traffic: trace not time-ordered (call Sort first)")
	}
	var last sim.Time
	if len(rp.Trace) > 0 {
		last = rp.Trace[len(rp.Trace)-1].T
	}
	if err := checkCompression(rp.Compression, last); err != nil {
		return err
	}
	hosts := net.Hosts()
	for _, r := range rp.Trace {
		if r.Src < 0 || r.Src >= hosts || r.Dst < 0 || r.Dst >= hosts || r.Src == r.Dst {
			return fmt.Errorf("traffic: record %+v invalid for %d hosts", r, hosts)
		}
	}
	for _, r := range rp.Trace {
		r := r
		hv := hostView(net, r.Src)
		hv.Schedule(sim.Time(float64(r.T)/rp.Compression), func() {
			hv.Inject(r.Src, r.Dst, r.Size)
		})
	}
	return nil
}

// checkCompression rejects a time-compression factor that is not a
// finite positive number, or that stretches span (the longest time it
// will divide) past the simulated clock.
func checkCompression(factor float64, span sim.Time) error {
	if !(factor > 0) || math.IsInf(factor, 0) {
		return fmt.Errorf("traffic: compression factor %v: want a finite positive number", factor)
	}
	if float64(span)/factor >= math.MaxInt64 {
		return fmt.Errorf("traffic: compression factor %v stretches %v past the simulated clock", factor, span)
	}
	return nil
}

// Capture builds a Trace by recording every Inject call, for writing
// synthetic workloads (e.g. the Cello model) to files.
type Capture struct {
	inner Network
	Out   Trace
}

// NewCapture wraps a network so injections are recorded as they are
// forwarded.
func NewCapture(inner Network) *Capture { return &Capture{inner: inner} }

// Hosts returns the wrapped network's endpoint count.
func (c *Capture) Hosts() int { return c.inner.Hosts() }

// Now returns the wrapped network's clock.
func (c *Capture) Now() sim.Time { return c.inner.Now() }

// Schedule forwards to the wrapped network.
func (c *Capture) Schedule(at sim.Time, fn func()) { c.inner.Schedule(at, fn) }

// Inject records the message and forwards it.
func (c *Capture) Inject(src, dst, size int) {
	c.Out = append(c.Out, Record{T: c.inner.Now(), Src: src, Dst: dst, Size: size})
	c.inner.Inject(src, dst, size)
}

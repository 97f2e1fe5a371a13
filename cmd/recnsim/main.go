// Command recnsim reproduces the paper's tables and figures.
//
// Usage:
//
//	recnsim -fig 2a [-scale 0.5] [-pkt 64] [-rows 40] [-j 8] [-shards 4]
//	recnsim -fig 2a -trace out.json [-trace-events tree] [-trace-bin 500ns]
//	recnsim -list
//	recnsim -all [-scale 0.25]
//
// Figure IDs: table1, 2a–2d, 3a/3b, 4a/4b, 5a/5b, 6a/6b,
// pkt512a/pkt512b, a1–a4, and the extensions (lat1/lat2, shootout,
// scaling/scaling1k — the memory-scaling figures on the fat tree).
// Scale 1.0 runs the paper's full durations (slow); smaller scales
// compress simulated time proportionally.
//
// With -trace, the figure's RECN run carries a flight recorder and its
// contents are exported as Chrome trace_event JSON — open the file at
// https://ui.perfetto.dev (or chrome://tracing). -trace-log and
// -trace-trees export the same recording as a plain-text event log and
// a congestion-tree lifecycle timeline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/prof"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure/table ID to reproduce (see -list)")
		all      = flag.Bool("all", false, "reproduce everything")
		list     = flag.Bool("list", false, "list figure IDs")
		scale    = flag.Float64("scale", 0.25, "time scale (1.0 = paper durations)")
		j        = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers for multi-policy figures (≥ 1; output is identical at any setting)")
		shards   = flag.Int("shards", 0, "shard each simulation across this many cores (windowed runtime; output is identical at any value ≥ 1 but differs deterministically from the default serial engine; 0 = serial)")
		pkt      = flag.Int("pkt", 0, "packet size in bytes (default per figure)")
		rows     = flag.Int("rows", 40, "max table rows")
		quiet    = flag.Bool("q", false, "suppress timing output")
		format   = flag.String("format", "text", "output format: text or csv")
		policies = flag.String("policies", "", "comma-separated mechanisms to run where the figure allows it, e.g. 'RECN,VOQnet' (default per figure)")
		topo     = flag.String("topo", "", "network topology where the figure allows it: min, fattree, mesh (default per figure; 'list' prints the names and exits)")
		faults   = flag.String("faults", "", "fault-injection spec, e.g. 'seed=1,drop=token:2,droprate=credit:0.01,flap=0:4:100us:140us' (recovery watchdogs enabled; accounting printed in table notes)")
		thrSpec  = flag.String("throttle", "", "throttle policy tunables, e.g. 'mark=16384,min=100,dec=500,inc=50,period=5us,delay=500ns,cnp=1us' (defaults apply to omitted keys)")
		arnSpec  = flag.String("arn", "", "arn policy tunables, e.g. 'on=16384,off=4096' (hint hysteresis thresholds in bytes)")
		chk      = flag.Bool("check", false, "enable the runtime invariant checker on every run (packet/credit conservation, SAQ lifecycle, deadlock/livelock); a violation aborts with a diagnostics snapshot")

		traceOut    = flag.String("trace", "", "write the figure's flight recording as Chrome trace_event JSON (open in Perfetto)")
		traceLog    = flag.String("trace-log", "", "write the flight recording as a plain-text event log")
		traceTrees  = flag.String("trace-trees", "", "write the congestion-tree lifecycle timeline")
		traceEvents = flag.String("trace-events", "", "comma-separated event kinds to record, e.g. 'saq,token', 'tree', 'packet', 'all' (default all)")
		traceBuf    = flag.Int("trace-buf", 0, "flight-recorder ring capacity in events (default 65536)")
		traceBin    = flag.String("trace-bin", "", "metrics sampling period for counter tracks, e.g. '500ns' (default off)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit (pprof format)")
	)
	flag.Parse()

	// -topo list is an escape hatch: print the accepted names and exit
	// before anything else (profiling included) starts.
	if *topo == "list" {
		fmt.Println(strings.ReplaceAll(repro.TopologyNames(), ", ", "\n"))
		return
	}
	if !repro.ValidTopology(*topo) {
		fatal(fmt.Errorf("-topo %q: unknown topology (valid: %s; -topo list prints them)", *topo, repro.TopologyNames()))
	}
	if *fig != "" && !repro.KnownFigure(*fig) {
		fatal(fmt.Errorf("-fig %q: unknown figure (valid: %s)", *fig, strings.Join(repro.FigureIDs(), ", ")))
	}
	if err := repro.ValidScale(*scale); err != nil {
		fatal(fmt.Errorf("-scale: %w", err))
	}
	if *format != "text" && *format != "csv" {
		fatal(fmt.Errorf("-format %q: want text or csv", *format))
	}
	if err := repro.ValidFaultSpec(*faults); err != nil {
		fatal(fmt.Errorf("-faults: %w", err))
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	if *j < 1 {
		fatal(fmt.Errorf("-j %d: want at least 1 worker", *j))
	}
	if *shards < 0 {
		fatal(fmt.Errorf("-shards %d: want 0 (serial) or a positive shard count", *shards))
	}
	opts := repro.Options{
		Scale:        *scale,
		PacketSize:   *pkt,
		MaxRows:      *rows,
		FaultSpec:    *faults,
		ThrottleSpec: *thrSpec,
		ARNSpec:      *arnSpec,
		Parallelism:  *j,
		Shards:       *shards,
		Check:        *chk,
		Topo:         *topo,
	}
	// Validate mechanism names and policy tunables up front, before any
	// (possibly long) simulation starts.
	opts.Policies, err = repro.ValidatePolicyOptions(splitList(*policies), *thrSpec, *arnSpec)
	if err != nil {
		fatal(err)
	}

	tracing := *traceOut != "" || *traceLog != "" || *traceTrees != ""
	var recorder *repro.TraceRecorder
	if tracing {
		cfg := repro.TraceConfig{BufferEvents: *traceBuf}
		if *traceEvents != "" {
			mask, err := repro.ParseTraceEvents(*traceEvents)
			if err != nil {
				fatal(err)
			}
			cfg.Events = mask
		}
		if *traceBin != "" {
			bin, err := repro.ParseTime(*traceBin)
			if err != nil {
				fatal(fmt.Errorf("-trace-bin: %w", err))
			}
			cfg.MetricsBin = bin
		}
		opts.Trace = &cfg
		// Keep the RECN run's recorder (the mechanism the trace
		// subsystem is about); fall back to whichever run came last.
		opts.OnTrace = func(label string, rec *repro.TraceRecorder) {
			if recorder == nil || label == repro.PolicyRECN.String() {
				recorder = rec
			}
		}
	} else if *traceEvents != "" || *traceBin != "" || *traceBuf != 0 {
		fatal(fmt.Errorf("-trace-events/-trace-bin/-trace-buf need an output: set -trace, -trace-log or -trace-trees"))
	}

	switch {
	case *list:
		fmt.Println(strings.Join(repro.FigureIDs(), "\n"))
		return
	case *all:
		if tracing {
			fatal(fmt.Errorf("-trace needs a single figure: use -fig, not -all"))
		}
		for _, id := range repro.FigureIDs() {
			runOne(id, opts, *quiet, *format)
		}
		return
	case *fig != "":
		runOne(*fig, opts, *quiet, *format)
		if tracing {
			if recorder == nil {
				fatal(fmt.Errorf("figure %s has no traceable simulation runs", *fig))
			}
			writeTrace(recorder, *traceOut, *traceLog, *traceTrees, *quiet)
		}
		return
	}
	flag.Usage()
	os.Exit(2)
}

func runOne(id string, opts repro.Options, quiet bool, format string) {
	start := time.Now()
	tables, err := repro.Reproduce(id, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "recnsim: %s: %v\n", id, err)
		os.Exit(1)
	}
	for _, t := range tables {
		if format == "csv" {
			if err := t.FprintCSV(os.Stdout); err != nil {
				fatal(err)
			}
		} else {
			t.Fprint(os.Stdout)
		}
		fmt.Println()
	}
	if !quiet {
		fmt.Printf("# %s done in %v (scale %.2f)\n\n", id, time.Since(start).Round(time.Millisecond), opts.Scale)
	}
}

// writeTrace exports the captured flight recording in every requested
// format.
func writeTrace(rec *repro.TraceRecorder, chrome, log, trees string, quiet bool) {
	type export struct {
		path  string
		write func(w io.Writer) error
		what  string
	}
	for _, e := range []export{
		{chrome, rec.WriteChromeTrace, "Chrome trace (open in Perfetto)"},
		{log, rec.WriteText, "event log"},
		{trees, rec.WriteTrees, "congestion-tree timeline"},
	} {
		if e.path == "" {
			continue
		}
		f, err := os.Create(e.path)
		if err != nil {
			fatal(err)
		}
		if err := e.write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if !quiet {
			fmt.Printf("# wrote %s to %s\n", e.what, e.path)
		}
	}
	if !quiet {
		fmt.Printf("# trace: %d events recorded, %d overwritten, %d congestion trees\n",
			rec.Total(), rec.Overwritten(), len(rec.Trees()))
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recnsim:", err)
	os.Exit(1)
}

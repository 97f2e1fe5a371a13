package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// quick options: heavily scaled-down runs that still let a congestion
// tree form (detection takes ~10 µs, so the 170 µs window needs
// scale ≥ ~0.2 to show the paper's shape).
func quickOpts() Options {
	return Options{Scale: 0.25, MaxRows: 20}
}

func TestTable1(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	for _, want := range []string{"48", "16", "random", "32", "50%", "100%", "800"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
	if len(tab.Rows) != 4 {
		t.Errorf("Table 1 has %d rows, want 4", len(tab.Rows))
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := (Run{Hosts: 64, Policy: fabric.PolicyRECN}).Execute(); err == nil {
		t.Error("Run without horizon accepted")
	}
	if _, err := (Run{Hosts: 63, Policy: fabric.PolicyRECN, Until: sim.Microsecond}).Execute(); err == nil {
		t.Error("Run with bad host count accepted")
	}
}

func TestValidScale(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		ok    bool
	}{
		{0, true}, {0.02, true}, {1, true}, {1e6, true},
		{-1, false}, {-1e-9, false}, {math.NaN(), false},
		{math.Inf(1), false}, {math.Inf(-1), false}, {1e30, false},
	} {
		if err := ValidScale(tc.scale); (err == nil) != tc.ok {
			t.Errorf("ValidScale(%g) = %v, want ok=%v", tc.scale, err, tc.ok)
		}
	}
	// The largest accepted scale keeps the longest horizon in range.
	if err := ValidScale(float64(math.MaxInt64) / float64(paperHorizon) * 0.99); err != nil {
		t.Errorf("scale just under the overflow bound rejected: %v", err)
	}
}

func TestRunDrainAllChecksInvariants(t *testing.T) {
	c, err := traffic.Corner(2, 64, 64, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run{
		Hosts:    64,
		Policy:   fabric.PolicyRECN,
		Workload: c.Install,
		Until:    c.SimEnd,
		DrainAll: true,
	}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 || res.Injected != res.Delivered {
		t.Fatalf("injected %d, delivered %d", res.Injected, res.Delivered)
	}
	if res.OrderViolations != 0 {
		t.Fatalf("order violations: %d", res.OrderViolations)
	}
	if res.Latency.Count() != res.Delivered {
		t.Fatalf("latency count %d != delivered %d", res.Latency.Count(), res.Delivered)
	}
}

// The headline result (Figure 2): during the congestion tree, 1Q loses
// a large fraction of its throughput while RECN stays close to VOQnet.
func TestFig2Corner2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	o := quickOpts()
	o.Policies = []fabric.Policy{fabric.PolicyVOQnet, fabric.Policy1Q, fabric.PolicyRECN}
	fig, err := Fig2(2, o)
	if err != nil {
		t.Fatal(err)
	}
	// Window well inside the congestion tree (paper time 850–960 µs).
	voqnet := fig.MeanWindow(fabric.PolicyVOQnet, 850, 960)
	oneQ := fig.MeanWindow(fabric.Policy1Q, 850, 960)
	recn := fig.MeanWindow(fabric.PolicyRECN, 850, 960)
	if voqnet < 40 {
		t.Fatalf("VOQnet during tree = %.1f B/ns, want ≈44 (model broken)", voqnet)
	}
	if oneQ > 0.93*voqnet {
		t.Errorf("1Q during tree = %.1f vs VOQnet %.1f: no HOL collapse", oneQ, voqnet)
	}
	if recn < 0.90*voqnet {
		t.Errorf("RECN during tree = %.1f vs VOQnet %.1f: should stay close", recn, voqnet)
	}
	if recn < oneQ {
		t.Errorf("RECN (%.1f) below 1Q (%.1f) during the tree", recn, oneQ)
	}
	// Before the tree all mechanisms are equal.
	pre1, pre2 := fig.MeanWindow(fabric.Policy1Q, 200, 780), fig.MeanWindow(fabric.PolicyRECN, 200, 780)
	if pre1 < 40 || pre2 < 40 {
		t.Errorf("pre-congestion throughput off: 1Q=%.1f RECN=%.1f", pre1, pre2)
	}
	// Table rendering sanity.
	tab := fig.Table()
	if len(tab.Rows) == 0 || len(tab.Header) != 4 {
		t.Fatalf("bad table: %d rows, header %v", len(tab.Rows), tab.Header)
	}
	zoom := fig.Zoom(750, 1000, fabric.PolicyVOQnet, fabric.PolicyRECN)
	if len(zoom.Header) != 3 {
		t.Fatalf("zoom header %v", zoom.Header)
	}
}

// Figure 4: SAQs are allocated during the tree, respect the per-port
// limit, and the totals match the paper's order of magnitude.
func TestFig4SAQUtilization(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	fig, err := Fig4(2, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	peak := fig.Result.SAQ.Peak()
	if peak.Total == 0 {
		t.Fatal("no SAQs ever allocated under the hotspot")
	}
	if peak.MaxIngress > 8 || peak.MaxEgress > 8 {
		t.Fatalf("per-port SAQ peak %d/%d exceeds the 8 provisioned", peak.MaxIngress, peak.MaxEgress)
	}
	// The paper reports ≈170 total SAQs for the corner cases; allow a
	// generous band for the scaled-down run.
	if peak.Total > 400 {
		t.Errorf("total SAQ peak %d far above the paper's ≈170", peak.Total)
	}
	tab := fig.Table()
	if len(tab.Rows) == 0 {
		t.Fatal("empty Fig4 table")
	}
}

// Figure 3 (cello traces): RECN keeps delivering at least as much as 1Q
// and stays within range of VOQnet.
func TestFig3TraceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	o := quickOpts()
	o.Scale = 0.5
	o.Policies = []fabric.Policy{fabric.PolicyVOQnet, fabric.PolicyRECN}
	fig, err := Fig3(40, o)
	if err != nil {
		t.Fatal(err)
	}
	voqnet := fig.Result(fabric.PolicyVOQnet).Throughput.Total()
	recn := fig.Result(fabric.PolicyRECN).Throughput.Total()
	if voqnet == 0 {
		t.Fatal("cello run delivered nothing")
	}
	if float64(recn) < 0.85*float64(voqnet) {
		t.Errorf("RECN delivered %d vs VOQnet %d on traces", recn, voqnet)
	}
}

func TestFig6Validation(t *testing.T) {
	if _, _, err := Fig6(100, quickOpts()); err == nil {
		t.Error("Fig6 with 100 hosts accepted")
	}
}

func TestAblationMarkersShowsReordering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	o := quickOpts()
	tab, err := AblationMarkers(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("ablation rows: %d", len(tab.Rows))
	}
	// Row 0 = markers on: zero violations. Row 1 = off: violations
	// appear (that is what the markers are for).
	if tab.Rows[0][5] != "0" {
		t.Errorf("markers on: order violations %s", tab.Rows[0][5])
	}
	if tab.Rows[1][5] == "0" {
		t.Errorf("markers off: expected order violations, table:\n%s", tab)
	}
}

func TestAblationSAQCountMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	o := quickOpts()
	tab, err := AblationSAQCount(o, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "bb"}, Notes: []string{"note"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("xyz", 3)
	s := tab.String()
	if !strings.Contains(s, "== t ==") || !strings.Contains(s, "2.50") {
		t.Errorf("table:\n%s", s)
	}
	if stride(100, 10) != 10 || stride(5, 10) != 1 || stride(7, 0) != 1 {
		t.Error("stride math")
	}
	var csvOut strings.Builder
	if err := tab.FprintCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	got := csvOut.String()
	for _, want := range []string{"a,bb\n", "1,2.50\n", "xyz,3\n", "# note\n"} {
		if !strings.Contains(got, want) {
			t.Errorf("csv missing %q:\n%s", want, got)
		}
	}
}

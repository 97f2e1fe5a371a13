package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fabric"
)

// This file is the figure registry: every reproducible table and figure
// of the paper (plus the extensions) by ID. It used to live in the
// repro facade; it moved here so the sweep daemon (internal/server) can
// run figures by ID without importing the facade — the facade now
// delegates down.

type figureRunner func(o Options) ([]*Table, error)

var figureRunners = map[string]figureRunner{
	"table1": func(o Options) ([]*Table, error) {
		t, err := Table1()
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	},
	"2a": fig2Runner(1, 0),
	"2b": fig2Runner(2, 0),
	"2c": func(o Options) ([]*Table, error) {
		fig, err := Fig2(1, o)
		if err != nil {
			return nil, err
		}
		return []*Table{fig.Zoom(750, 1000, fabric.PolicyVOQnet, fabric.PolicyRECN)}, nil
	},
	"2d": func(o Options) ([]*Table, error) {
		fig, err := Fig2(2, o)
		if err != nil {
			return nil, err
		}
		return []*Table{fig.Zoom(750, 1000, fabric.PolicyVOQnet, fabric.PolicyRECN)}, nil
	},
	"3a":      fig3Runner(20),
	"3b":      fig3Runner(40),
	"4a":      fig4Runner(1),
	"4b":      fig4Runner(2),
	"5a":      fig5Runner(20),
	"5b":      fig5Runner(40),
	"6a":      fig6Runner(256),
	"6b":      fig6Runner(512),
	"pkt512a": fig2Runner(1, 512),
	"pkt512b": fig2Runner(2, 512),
	"a1": func(o Options) ([]*Table, error) {
		t, err := AblationSAQCount(o, nil)
		return []*Table{t}, err
	},
	"a2": func(o Options) ([]*Table, error) {
		t, err := AblationThreshold(o, nil)
		return []*Table{t}, err
	},
	"a3": func(o Options) ([]*Table, error) {
		t, err := AblationTokenBoost(o)
		return []*Table{t}, err
	},
	"a4": func(o Options) ([]*Table, error) {
		t, err := AblationMarkers(o)
		return []*Table{t}, err
	},
	"lat1": func(o Options) ([]*Table, error) {
		t, err := LatencyFig(1, o)
		return []*Table{t}, err
	},
	"lat2": func(o Options) ([]*Table, error) {
		t, err := LatencyFig(2, o)
		return []*Table{t}, err
	},
	"shootout": Shootout,
	"scaling": func(o Options) ([]*Table, error) {
		t, err := Scaling(4096, o)
		return []*Table{t}, err
	},
	"scaling1k": func(o Options) ([]*Table, error) {
		t, err := Scaling(1024, o)
		return []*Table{t}, err
	},
}

// runCount is how many simulations a figure schedules: runs under its
// default mechanism list, and perPolicy runs per mechanism when
// Options.Policies overrides that list (0: the figure ignores the
// override — single-mechanism figures, the ablations and table1, which
// builds traffic specs only and simulates nothing).
type runCount struct{ runs, perPolicy int }

// figureRuns sizes every figure for admission control in the sweep
// daemon (see EstimatedRuns).
var figureRuns = map[string]runCount{
	"table1": {0, 0},
	"2a":     {5, 1}, "2b": {5, 1}, "2c": {5, 1}, "2d": {5, 1},
	"3a": {4, 1}, "3b": {4, 1},
	"4a": {1, 0}, "4b": {1, 0},
	"5a": {1, 0}, "5b": {1, 0},
	"6a": {3, 1}, "6b": {3, 1},
	"pkt512a": {5, 1}, "pkt512b": {5, 1},
	"a1": {5, 0}, "a2": {5, 0}, "a3": {2, 0}, "a4": {2, 0},
	"lat1": {3, 1}, "lat2": {3, 1},
	"shootout":  {20, 5}, // five scenarios per mechanism
	"scaling":   {4, 1},
	"scaling1k": {4, 1},
}

func fig2Runner(corner, pktSize int) figureRunner {
	return func(o Options) ([]*Table, error) {
		if pktSize != 0 {
			o.PacketSize = pktSize
		}
		fig, err := Fig2(corner, o)
		if err != nil {
			return nil, err
		}
		return []*Table{fig.Table()}, nil
	}
}

func fig3Runner(cf float64) figureRunner {
	return func(o Options) ([]*Table, error) {
		fig, err := Fig3(cf, o)
		if err != nil {
			return nil, err
		}
		return []*Table{fig.Table()}, nil
	}
}

func fig4Runner(corner int) figureRunner {
	return func(o Options) ([]*Table, error) {
		fig, err := Fig4(corner, o)
		if err != nil {
			return nil, err
		}
		return []*Table{fig.Table()}, nil
	}
}

func fig5Runner(cf float64) figureRunner {
	return func(o Options) ([]*Table, error) {
		fig, err := Fig5(cf, o)
		if err != nil {
			return nil, err
		}
		return []*Table{fig.Table()}, nil
	}
}

func fig6Runner(hosts int) figureRunner {
	return func(o Options) ([]*Table, error) {
		tput, saq, err := Fig6(hosts, o)
		if err != nil {
			return nil, err
		}
		return []*Table{tput.Table(), saq.Table()}, nil
	}
}

// FigureIDs lists every reproducible experiment, in paper order.
func FigureIDs() []string {
	ids := make([]string, 0, len(figureRunners))
	for id := range figureRunners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// KnownFigure reports whether an ID names a reproducible experiment.
func KnownFigure(id string) bool {
	_, ok := figureRunners[strings.ToLower(id)]
	return ok
}

// EstimatedRuns returns how many simulations Reproduce(id) schedules
// with policies mechanisms in Options.Policies (0 = the figure's
// default list); false for unknown IDs. Custom ablation lists (the
// recnsweep -counts/-kb flags) are not counted.
func EstimatedRuns(id string, policies int) (int, bool) {
	c, ok := figureRuns[strings.ToLower(id)]
	if policies > 0 && c.perPolicy > 0 {
		return c.perPolicy * policies, ok
	}
	return c.runs, ok
}

// Reproduce regenerates one of the paper's tables or figures by ID
// ("table1", "2a"–"2d", "3a"/"3b", "4a"/"4b", "5a"/"5b", "6a"/"6b",
// "pkt512a"/"pkt512b", ablations "a1"–"a4", and the latency extension
// "lat1"/"lat2"). Options.Scale trades fidelity for speed; 1.0
// reproduces the paper's durations.
func Reproduce(id string, o Options) ([]*Table, error) {
	runner, ok := figureRunners[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("repro: unknown figure %q (have %s)", id, strings.Join(FigureIDs(), ", "))
	}
	return runner(o)
}

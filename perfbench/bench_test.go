package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/transport"
)

// namedUnit is a metric entry of BENCHMARK.json.
type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke runs one tiny-scale invocation and returns its result line.
func smoke(t *testing.T, workload string, seed int64, trace int, out string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "1",
		"--scale", "0.02", "--trace", fmt.Sprint(trace), "--out", out}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that the oracle passes and that exactly the metrics
// BENCHMARK.json names are printed, each with its unit. It also checks
// that BENCHMARK.json names only workloads the benchmark has.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	for _, name := range workloadNames {
		for trace, want := range [][]namedUnit{s.EndToEnd, s.PerLayer} {
			out := t.TempDir()
			res := smoke(t, name, 7, trace, out)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s has unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace == 1 {
				path := filepath.Join(out, fmt.Sprintf("spans-%s-seed7.jsonl.gz", name))
				if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
					t.Errorf("%s: span file %s missing or empty: %v", name, path, err)
				}
			}
		}
	}
}

// TestSeedDeterminism checks that two runs on one seed send the same
// dissemination messages per event and expect the same notifications,
// and that another seed generates other inputs.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloadNames {
		a := smoke(t, w, 11, 0, t.TempDir())
		b := smoke(t, w, 11, 0, t.TempDir())
		if a.Attempted != b.Attempted {
			t.Errorf("%s: expected notifications %d vs %d on one seed", w, a.Attempted, b.Attempted)
		}
		if da, db := a.Metrics["dissem_msgs_per_event"].Value, b.Metrics["dissem_msgs_per_event"].Value; da != db {
			t.Errorf("%s: dissem_msgs_per_event %v vs %v on one seed", w, da, db)
		}
		wl := workloads[w].scaled(0.02)
		x, err := generate(wl, 11, 1)
		if err != nil {
			t.Fatal(err)
		}
		y, err := generate(wl, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		if x.fingerprint == y.fingerprint {
			t.Errorf("%s: seeds 11 and 12 generated identical inputs", w)
		}
	}
}

// TestParseBatch checks the endpoint's parser against what a
// RemoteNotifier puts on the wire.
func TestParseBatch(t *testing.T) {
	in, err := generate(workloads["fanout"].scaled(0.02), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev := in.steps[0].ev
	a, b := in.subs[0], in.subs[1]
	mem := transport.NewMemory(1)
	ep := newEndpoint(in)
	if _, err := mem.Listen(endpointAddr, ep); err != nil {
		t.Fatal(err)
	}
	rn := core.NewRemoteNotifier("S00", endpointAddr, mem)
	if err := rn.NotifyBatch([]core.Notification{
		{Client: a.client, ProfileID: a.id, Event: ev},
		{Client: a.client, ProfileID: b.id, Event: ev},
	}); err != nil {
		t.Fatal(err)
	}
	got, bad := ep.arrivals()
	want := []arrival{{ev: in.steps[0].evIdx, sub: 0, owner: true}, {ev: in.steps[0].evIdx, sub: 1, owner: false}}
	if bad != 0 || len(got) != 2 {
		t.Fatalf("parsed %+v (bad %d)", got, bad)
	}
	for i := range want {
		want[i].at = got[i].at
		if got[i] != want[i] {
			t.Errorf("item %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

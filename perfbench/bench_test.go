package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tiny runs a workload shrunk tenfold for a couple of seconds.
func tiny(t *testing.T, name string, seed int64, trace bool, inj injMode) (result, string) {
	return tinyFor(t, name, seed, 2, trace, inj)
}

func tinyFor(t *testing.T, name string, seed int64, seconds float64, trace bool, inj injMode) (result, string) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg := config{w: w.scaled(10), seed: seed, seconds: seconds, trace: trace, setups: 1, tmp: t.TempDir(), out: &out}
	if inj != injNone {
		cfg.inj = &injection{mode: inj}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := runBench(ctx, cfg)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	return res, out.String()
}

func TestTinyRunsComplete(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, out := tiny(t, w.name, 1, trace, injNone)
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Fatalf("%s trace=%v: metric %s missing or mis-unitted: %+v", w.name, trace, d.Name, m)
				}
				if !trace && m.Value <= 0 {
					t.Fatalf("%s: end-to-end metric %s is %v, want > 0\n%s", w.name, d.Name, m.Value, out)
				}
			}
			if trace && w.mix[opRevoke] > 0 && res.Metrics["subs.pushes_per_revoke"].Value != 1 {
				t.Fatalf("%s: %v pushes per revoke, want exactly 1", w.name, res.Metrics["subs.pushes_per_revoke"].Value)
			}
		}
	}
}

// TestLateGeneratorInvalidatesRun requires a run whose generator lag
// exceeds the limit to end in an error rather than a result.
func TestLateGeneratorInvalidatesRun(t *testing.T) {
	w, err := findWorkload("authz-hot")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg := config{w: w.scaled(10), seed: 3, seconds: 1, setups: 1, tmp: t.TempDir(), lag: time.Nanosecond, out: &out}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := runBench(ctx, cfg); !errors.Is(err, errInvalidRun) {
		t.Fatalf("run with generator lag over the limit returned %v, want errInvalidRun\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "INVALID RUN") {
		t.Fatalf("invalid run not reported\n%s", out.String())
	}
}

// TestChecksFireOnInjectedViolations breaks the system in one way at a
// time and requires the run to be reported incorrect for that reason.
func TestChecksFireOnInjectedViolations(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		seconds  float64
		inj      injMode
		want     string
	}{
		// A stale answer shows only when a query repeats the pair of a
		// revoked shortcut; five seconds make some twenty such repeats.
		{"stale proof", "churn", 5, injStaleProof, "revoked before the query was sent"},
		{"wrong answer", "authz-hot", 2, injWrongAnswer, "want proof=true"},
		{"dropped push", "churn", 2, injDropPush, "produced 0 pushes, want 1"},
		{"replica divergence", "churn", 2, injReplicaDiverge, "replica revocations differ"},
		{"invalid discovered proof", "coalition", 2, injBadProof, "does not validate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, out := tinyFor(t, c.workload, 2, c.seconds, false, c.inj)
			if res.Correct {
				t.Fatalf("run passed despite the injected violation\n%s", out)
			}
			if !strings.Contains(out, c.want) {
				t.Fatalf("no %q check failure reported\n%s", c.want, out)
			}
		})
	}
}

// TestSeedFixesCounts requires the population, and the counts the probe
// takes before any traffic, to repeat exactly for a seed.
func TestSeedFixesCounts(t *testing.T) {
	digest := regexp.MustCompile(`population=([0-9a-f]+)`)
	var seen []string
	var probes [][2]float64
	for _, seed := range []int64{7, 7, 8} {
		res, out := tiny(t, "churn", seed, true, injNone)
		m := digest.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no population digest in the report\n%s", out)
		}
		seen = append(seen, m[1])
		probes = append(probes, [2]float64{res.Metrics["graph.probe_edges_per_query"].Value, res.Metrics["transport.probe_bytes_per_op"].Value})
	}
	if seen[0] != seen[1] || probes[0] != probes[1] {
		t.Fatalf("seed 7 gave populations %s and %s, probe counts %v and %v", seen[0], seen[1], probes[0], probes[1])
	}
	if seen[0] == seen[2] {
		t.Fatalf("seeds 7 and 8 gave the same population %s", seen[0])
	}
	if probes[0][0] == 0 || probes[0][1] == 0 {
		t.Fatalf("probe counted nothing: %v", probes[0])
	}
}

// TestManifestMatches keeps BENCHMARK.json in step with the workload and
// metric tables here (regenerate it with --manifest).
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(newManifest())
	if err != nil {
		t.Fatal(err)
	}
	have, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Fatalf("BENCHMARK.json is stale:\n have %s\n want %s", have, want)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Fatalf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sheriff/internal/obs"
)

// stepLines extracts the per-step status lines (those starting with a
// step number) from a run's output.
func stepLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		t := strings.TrimSpace(l)
		if t == "" {
			continue
		}
		if t[0] >= '0' && t[0] <= '9' {
			lines = append(lines, t)
		}
	}
	return lines
}

// parseTrace decodes every line of a JSONL trace, failing on any corrupt
// line, and returns the events.
func parseTrace(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []obs.Event
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("corrupt trace line %d: %v\n%s", len(events)+1, err, sc.Text())
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestRunSnapshotRestartContinuesExactly is the daemon warm-restart
// acceptance test: a run killed after K steps and restarted from its
// snapshot must produce, step for step, the same status lines as one
// uninterrupted run — forecasting resumed from warm state, not re-fit.
func TestRunSnapshotRestartContinuesExactly(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-size", "4", "-hosts", "2", "-vms", "2", "-seed", "9", "-deep"}

	var full bytes.Buffer
	if err := run(append([]string{"-steps", "10"}, base...), &full); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(dir, "daemon.snap")
	var first bytes.Buffer
	if err := run(append([]string{"-steps", "6", "-snapshot", snap, "-snapshot-every", "4"}, base...), &first); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("shutdown flush left no snapshot: %v", err)
	}
	var second bytes.Buffer
	if err := run(append([]string{"-steps", "4", "-snapshot", snap}, base...), &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "resumed from") {
		t.Fatalf("second run did not resume from the snapshot:\n%s", second.String())
	}

	want := stepLines(full.String())
	got := append(stepLines(first.String()), stepLines(second.String())...)
	if len(want) != 10 || len(got) != 10 {
		t.Fatalf("step line counts: uninterrupted %d, split %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("step %d diverged after restart:\n uninterrupted: %s\n split:         %s", i, want[i], got[i])
		}
	}
}

// TestRunSnapshotConfigMismatch pins the refusal to resume a snapshot
// under different build flags.
func TestRunSnapshotConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "daemon.snap")
	var out bytes.Buffer
	if err := run([]string{"-size", "4", "-steps", "2", "-snapshot", snap}, &out); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-size", "4", "-steps", "2", "-seed", "2", "-snapshot", snap}, &out)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("mismatched resume err = %v", err)
	}
}

// TestRunSnapshotIngestSlotMismatch pins the restore-time check of the
// ingest slots against the restored cluster: a slot naming a VM outside
// the cluster, or a cluster VM with no slot, fails at startup and names
// that VM.
func TestRunSnapshotIngestSlotMismatch(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "daemon.snap")
	var out bytes.Buffer
	if err := run([]string{"-size", "4", "-steps", "2", "-snapshot", snap}, &out); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		tamper func(*daemonState) string // returns the wanted error text
	}{
		{"foreign slot", func(st *daemonState) string {
			st.Ingest.Shards[0].Slots[0].VM = 99999
			return "VM 99999"
		}},
		{"missing slot", func(st *daemonState) string {
			slots := st.Ingest.Shards[0].Slots
			st.Ingest.Shards[0].Slots = slots[1:]
			return fmt.Sprintf("cluster VM %d has no ingest slot", slots[0].VM)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st daemonState
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			want := tc.tamper(&st)
			bad, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".snap")
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err = run([]string{"-size", "4", "-steps", "2", "-snapshot", path}, &out)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("tampered resume err = %v, want it to contain %q", err, want)
			}
			if strings.Contains(out.String(), "resumed from") {
				t.Fatalf("tampered snapshot reported a resume:\n%s", out.String())
			}
		})
	}
}

// TestRunFailStepLeavesParseableTrace is the crash-safe trace
// acceptance test: an injected mid-run error must still leave a closed,
// fully parseable JSONL trace with the events recorded up to the
// failure.
func TestRunFailStepLeavesParseableTrace(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "run.jsonl")
	var out bytes.Buffer
	err := run([]string{"-size", "4", "-steps", "20", "-trace", tr, "-fail-step", "2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("run error = %v, want injected failure", err)
	}
	events := parseTrace(t, tr)
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	var ingestEvents, phaseEvents int
	for _, e := range events {
		switch e.Kind {
		case obs.KindIngest:
			ingestEvents++
		case obs.KindPhase:
			phaseEvents++
		}
	}
	if ingestEvents == 0 || phaseEvents == 0 {
		t.Fatalf("trace missing event kinds: ingest=%d phase=%d", ingestEvents, phaseEvents)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-topology", "nope"}, &out); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("-h should not be an error, got %v", err)
	}
}

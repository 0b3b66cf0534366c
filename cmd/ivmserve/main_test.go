package main

import (
	"os"
	"syscall"
	"testing"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/wal"
	"github.com/arrayview/arrayview/internal/workload"
)

// SIGTERM mid-workload loses zero committed batches, whichever engine sits
// behind the daemon's feed loop: the daemon drains the in-flight batches
// (the streaming sink, the adaptive layer's pending log), fsyncs the WAL,
// and exits; reopening the data directory recovers exactly the batches whose
// commits it had acknowledged.
func TestSigtermLosesNoCommittedBatches(t *testing.T) {
	for _, tc := range []struct {
		name     string
		streamed bool
		adaptive *maintain.AdaptiveConfig
	}{
		{name: "eager"},
		{name: "stream", streamed: true},
		{name: "adaptive", adaptive: adaptiveConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sigtermLosesNoCommittedBatches(t, engine.Config{
				Strategy: "reassign", Listen: "127.0.0.1:0", DataDir: t.TempDir(),
				Streamed: tc.streamed, Adaptive: tc.adaptive,
			})
		})
	}
}

func sigtermLosesNoCommittedBatches(t *testing.T, cfg engine.Config) {
	dir := cfg.DataDir
	spec := bench.SmallSpec(bench.PTF5, workload.Real)
	done := make(chan error, 1)
	go func() { done <- run(cfg, spec, 120*time.Millisecond, 0, "") }()
	// Let some batches commit, then terminate mid-workload. run's
	// signal.Notify intercepts the process-wide SIGTERM.
	time.Sleep(500 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}

	_, rec, err := wal.Open(wal.NewOSFS(dir), spec.Nodes, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec == nil {
		t.Fatal("no durable state survived shutdown")
	}
	if rec.Kind != "commit" {
		t.Fatalf("last barrier is a %s, want commit", rec.Kind)
	}
	data, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	def, err := spec.ViewFor(data)
	if err != nil {
		t.Fatal(err)
	}
	k := int(rec.Applied)
	if k > len(data.Batches) {
		t.Fatalf("recovered applied cursor %d for %d batches", k, len(data.Batches))
	}
	if rec.Seq < rec.Applied {
		t.Fatalf("barrier seq %d behind applied cursor %d", rec.Seq, rec.Applied)
	}

	got, err := spec.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Install(got); err != nil {
		t.Fatalf("install: %v", err)
	}

	// Clean replay of exactly the k acknowledged batches, with the
	// daemon's own setup.
	want, err := spec.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if err := want.LoadArray(data.Base, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	if err := maintain.BuildView(want, def, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	m, err := maintain.NewMaintainer(want, def, maintain.Strategies()["reassign"], spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := m.ApplyBatch(data.Batches[i]); err != nil {
			t.Fatalf("clean replay batch %d: %v", i, err)
		}
	}
	for _, name := range []string{def.Alpha.Name, def.Name} {
		g, err := got.Gather(name)
		if err != nil {
			t.Fatalf("gather recovered %s: %v", name, err)
		}
		w, err := want.Gather(name)
		if err != nil {
			t.Fatalf("gather replay %s: %v", name, err)
		}
		if !cellEqual(g, w) {
			t.Fatalf("%s: recovered state does not match clean replay of the %d acknowledged batches", name, k)
		}
	}

	// Restart on the same directory: the daemon recovers, resumes after
	// batch k, and finishes the workload.
	go func() { done <- run(cfg, spec, 10*time.Millisecond, 0, "") }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		time.Sleep(200 * time.Millisecond)
		_, rec2, err := wal.Open(wal.NewOSFS(dir), spec.Nodes, wal.Options{})
		if err == nil && rec2 != nil && int(rec2.Applied) >= len(data.Batches) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon never finished the remaining batches")
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("restarted daemon exited with: %v", err)
	}
}

func cellEqual(a, b *array.Array) bool {
	if a.NumCells() != b.NumCells() {
		return false
	}
	same := true
	a.EachCell(func(p array.Point, tup array.Tuple) bool {
		got, ok := b.Get(p)
		if !ok || len(got) != len(tup) {
			same = false
			return false
		}
		for i := range tup {
			if got[i] != tup[i] {
				same = false
				return false
			}
		}
		return true
	})
	return same
}

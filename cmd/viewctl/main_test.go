package main

import (
	"testing"

	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/engine"
)

func geo(t *testing.T) bench.Spec {
	t.Helper()
	spec, err := bench.ParseSpec("GEO", "", true)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRunSmallVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small maintenance sequence")
	}
	if err := run(engine.Config{Strategy: "reassign"}, geo(t), 2, true, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunDistributedSmallVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small maintenance sequence over loopback TCP")
	}
	if err := run(engine.Config{Strategy: "reassign", Distributed: true}, geo(t), 2, true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	// Unknown dataset and mode names fail in bench.ParseSpec (TestParseSpec).
	for _, tc := range []struct {
		name string
		cfg  engine.Config
	}{
		{"unknown strategy", engine.Config{Strategy: "nope"}},
		{"unreachable node daemons", engine.Config{Distributed: true, Connect: "127.0.0.1:1"}},
		{"-connect without -distributed", engine.Config{Connect: "127.0.0.1:1"}},
	} {
		if err := run(tc.cfg, geo(t), 1, false, false); err == nil {
			t.Errorf("%s must fail", tc.name)
		}
	}
}

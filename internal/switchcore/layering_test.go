package switchcore

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoSimulatorDependency pins the sans-I/O contract: the switch core
// and its UDP driver must not reach the discrete-event kernel or the
// simulated network, directly or through any package they import, and
// the UDP driver must leave the accelerator to the core.
func TestNoSimulatorDependency(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	const module = "iswitch/"
	imports := func(pkg string) []string {
		bp, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(pkg, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		return bp.Imports
	}
	// deps returns every module package pkg reaches, keyed to the
	// package that imports it.
	deps := func(pkg string) map[string]string {
		seen := map[string]string{}
		var walk func(string)
		walk = func(p string) {
			for _, imp := range imports(p) {
				if _, ok := seen[imp]; ok || !strings.HasPrefix(imp, module) {
					continue
				}
				seen[imp] = p
				walk(imp)
			}
		}
		walk(pkg)
		return seen
	}
	for _, pkg := range []string{"iswitch/internal/switchcore", "iswitch/internal/transport"} {
		d := deps(pkg)
		if len(d) == 0 {
			t.Fatalf("%s: no module imports found; the walk is broken", pkg)
		}
		for _, banned := range []string{"iswitch/internal/sim", "iswitch/internal/netsim"} {
			if via, ok := d[banned]; ok {
				t.Errorf("%s depends on %s (imported by %s)", pkg, banned, via)
			}
		}
	}
	for _, imp := range imports("iswitch/internal/transport") {
		if imp == "iswitch/internal/accel" {
			t.Error("transport imports accel directly; aggregation belongs to the switch core")
		}
	}
}

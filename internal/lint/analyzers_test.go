package lint_test

import (
	"path/filepath"
	"testing"

	"dcfail/internal/lint"
	"dcfail/internal/lint/linttest"
)

// TestAnalyzerFixtures drives every registered analyzer over its
// fixture tree: each rule must fire exactly where the // want comments
// say and stay silent on the compliant functions.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range lint.All() {
		t.Run(a.Name, func(t *testing.T) {
			linttest.Run(t, filepath.Join("testdata", a.Name), a)
		})
	}
}

// TestRegistry pins the rule registry's shape: stable names, docs, and
// scopes, so fotlint -list stays meaningful.
func TestRegistry(t *testing.T) {
	want := []string{
		"maporder", "walltime", "globalrand", "fsyncgap", "lockedblocking", "incpurity",
		"lockorder", "epochpub", "goroleak", "errdrop",
	}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Invariant == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing Doc/Invariant/Run", a.Name)
		}
		if got := lint.ByName(a.Name); got != a {
			t.Errorf("ByName(%q) did not resolve the registered analyzer", a.Name)
		}
	}
	if lint.ByName("nosuchrule") != nil {
		t.Error("ByName resolved a rule that does not exist")
	}
}

// TestScope pins the package scoping of each rule to the packages the
// invariants actually cover.
func TestScope(t *testing.T) {
	cases := []struct {
		rule    string
		path    string
		applies bool
	}{
		{"maporder", "dcfail/internal/core", true},
		{"maporder", "dcfail/internal/report", true},
		{"maporder", "dcfail/internal/serve", true},
		{"maporder", "dcfail/internal/wal", false},
		{"walltime", "dcfail/internal/serve", true},
		{"walltime", "dcfail/internal/fmsnet", true},
		{"walltime", "dcfail/internal/replica", true},
		{"walltime", "dcfail/internal/router", true},
		{"walltime", "dcfail/cmd/fotqueryd", false},
		{"globalrand", "dcfail/internal/fleetgen", true},
		{"globalrand", "dcfail/internal/inject", true},
		{"globalrand", "dcfail/internal/serve", false},
		{"fsyncgap", "dcfail/internal/wal", true},
		{"fsyncgap", "dcfail/internal/archive", true},
		{"fsyncgap", "dcfail/internal/archive/segment", true},
		{"fsyncgap", "dcfail/internal/report", false},
		{"lockedblocking", "dcfail/internal/anything", true},
		{"lockedblocking", "dcfail", true},
		{"incpurity", "dcfail/internal/core", true},
		{"incpurity", "dcfail/internal/report", true},
		{"incpurity", "dcfail/internal/mine", true},
		{"incpurity", "dcfail/internal/serve", false},
		{"maporder", "dcfail/internal/predict", true},
		{"walltime", "dcfail/internal/predict", true},
		{"incpurity", "dcfail/internal/predict", true},
		{"globalrand", "dcfail/internal/predict", false},
		{"lockorder", "dcfail/internal/anything", true},
		{"lockorder", "dcfail", true},
		{"epochpub", "dcfail/internal/serve", true},
		{"epochpub", "dcfail/internal/replica", true},
		{"epochpub", "dcfail/internal/predict", true},
		{"epochpub", "dcfail/internal/core", false},
		{"goroleak", "dcfail/internal/router", true},
		{"goroleak", "dcfail/internal/fmsnet", true},
		{"goroleak", "dcfail/internal/core", true},
		{"goroleak", "dcfail/internal/report", false},
		{"errdrop", "dcfail/internal/wal", true},
		{"errdrop", "dcfail/internal/archive", true},
		{"errdrop", "dcfail/internal/archive/segment", true},
		{"errdrop", "dcfail/internal/wire", true},
		{"errdrop", "dcfail/internal/replica", true},
		{"errdrop", "dcfail/internal/fmsnet", true},
		{"errdrop", "dcfail/internal/serve", false},
	}
	for _, c := range cases {
		a := lint.ByName(c.rule)
		if a == nil {
			t.Fatalf("no analyzer %q", c.rule)
		}
		if got := a.AppliesTo(c.path); got != c.applies {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.rule, c.path, got, c.applies)
		}
	}
}

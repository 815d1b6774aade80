package lint

import (
	"sort"
	"testing"
)

// TestAllRegistered pins the multichecker roster: every analyzer the suite
// defines must be registered in All() with a usable name, doc and entry
// point, so a new analyzer cannot silently miss the qqlvet run.
func TestAllRegistered(t *testing.T) {
	all := All()
	wantNames := []string{
		"atomicmix", "cancelflow", "errdrop", "exhaustive", "lockorder",
		"locksafe", "metricsreg", "releasepair", "sharedscan", "valuecopy",
		"walorder",
	}
	var got []string
	seen := map[string]bool{}
	for _, a := range all {
		if a == nil {
			t.Fatal("nil analyzer registered")
		}
		if a.Name == "" || a.Doc == "" || a.Run == nil || a.Match == nil {
			t.Errorf("analyzer %q incompletely defined (doc/run/match)", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		got = append(got, a.Name)
	}
	sort.Strings(got)
	if len(got) != len(wantNames) {
		t.Fatalf("All() = %v, want %v", got, wantNames)
	}
	for i := range wantNames {
		if got[i] != wantNames[i] {
			t.Fatalf("All() = %v, want %v", got, wantNames)
		}
	}
}

// TestMatchScopes pins each analyzer's package scope to the paths its
// invariant lives in.
func TestMatchScopes(t *testing.T) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	cases := []struct {
		analyzer string
		path     string
		want     bool
	}{
		{"locksafe", "repro/internal/storage", true},
		{"locksafe", "repro/internal/server/client", true}, // repo-wide
		{"valuecopy", "repro/internal/algebra", true},
		{"valuecopy", "repro/internal/storage", true},
		{"valuecopy", "repro/internal/value", true},
		{"valuecopy", "repro/internal/server", false},
		{"metricsreg", "repro/internal/server", true},
		{"metricsreg", "repro/internal/qql", true},
		{"metricsreg", "repro/internal/storage", false},
		{"sharedscan", "repro/internal/algebra", true},
		{"sharedscan", "repro/internal/qql", true},
		{"sharedscan", "repro/internal/server", true},
		{"sharedscan", "repro/internal/storage", false}, // Scan itself lives there
		{"sharedscan", "repro/bench", false},            // tooling outside the engine may Scan
		{"releasepair", "repro/internal/algebra", true}, // repo-wide
		{"lockorder", "repro/internal/storage", true},   // repo-wide
		{"lockorder", "repro/internal/server/client", true},
		{"atomicmix", "repro/internal/storage", true},      // repo-wide
		{"cancelflow", "repro/internal/algebra", true},     // repo-wide
		{"exhaustive", "repro/internal/server/wire", true}, // repo-wide
		{"errdrop", "repro/internal/server", true},
		{"errdrop", "repro/internal/server/client", true},
		{"errdrop", "repro/internal/server/wire", true},
		{"errdrop", "repro/internal/storage", true},
		{"errdrop", "repro/cmd/qqlsh", true},
		{"errdrop", "repro/cmd/qqld", true},
		{"errdrop", "repro/internal/value", false}, // pure compute: out of scope
		{"errdrop", "repro/internal/algebra", false},
		{"walorder", "repro/internal/qql", true},
		{"walorder", "repro/internal/storage/wal", true},
		{"walorder", "repro/internal/storage", false}, // the engine itself is below the log
	}
	for _, c := range cases {
		a := byName[c.analyzer]
		if a == nil {
			t.Fatalf("analyzer %q not registered", c.analyzer)
		}
		if got := a.Match(c.path); got != c.want {
			t.Errorf("%s.Match(%q) = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}

// TestIncludeTestsRoster pins which analyzers keep _test.go findings:
// only errdrop — a test helper that swallows an error hides real
// failures — while the hot-path invariants stay production-only.
func TestIncludeTestsRoster(t *testing.T) {
	for _, a := range All() {
		want := a.Name == "errdrop"
		if a.IncludeTests != want {
			t.Errorf("%s.IncludeTests = %v, want %v", a.Name, a.IncludeTests, want)
		}
	}
}

package lint

import "testing"

// The harness types each testdata package under an import path chosen to
// satisfy the path-sensitive bits of the analyzer under test (locksafe's
// storage-owned-lock rule keys off the declaring package's path).

func TestLocksafeTestdata(t *testing.T) {
	runTestdata(t, Locksafe, "locksafe", "test/internal/storage")
}

func TestReleasepairTestdata(t *testing.T) {
	runTestdata(t, Releasepair, "releasepair", "test/releasepair")
}

func TestValuecopyTestdata(t *testing.T) {
	runTestdata(t, Valuecopy, "valuecopy", "test/valuecopy")
}

func TestMetricsregTestdata(t *testing.T) {
	runTestdata(t, Metricsreg, "metricsreg", "test/metricsreg")
}

func TestSharedscanTestdata(t *testing.T) {
	runTestdata(t, Sharedscan, "sharedscan", "test/sharedscan")
}

// The fact-based analyzers get multi-package fixtures: the first package
// exports facts, the second imports them, and the `// want` comments in
// the importing package only come true when the facts actually flowed.

func TestLockorderTestdata(t *testing.T) {
	runTestdataProgram(t, Lockorder, "lockorder", []testdataPkg{
		{subdir: "deps", importPath: "test/lockorder/deps"},
		{subdir: "use", importPath: "test/lockorder/internal/storage"},
	})
}

// TestIOSensitiveOwner pins the packages whose locks lockorder forbids
// holding across I/O. The match is on whole path elements: the WAL holds
// its flush lock across fsync by design, and a sibling package whose name
// merely starts with "storage" is not the storage layer.
func TestIOSensitiveOwner(t *testing.T) {
	for owner, want := range map[string]bool{
		"repro/internal/storage":        true,
		"repro/internal/server":         true,
		"repro/internal/server/client":  true,
		"internal/server/client":        true,
		"repro/internal/storage/wal":    false,
		"repro/internal/server/wire":    false,
		"repro/internal/qql":            false,
		"repro/internal/storagex":       false,
		"repro/x/internal/serverclient": false,
	} {
		if got := ioSensitiveOwner(owner); got != want {
			t.Errorf("ioSensitiveOwner(%q) = %v, want %v", owner, got, want)
		}
	}
}

func TestAtomicmixTestdata(t *testing.T) {
	runTestdataProgram(t, Atomicmix, "atomicmix", []testdataPkg{
		{subdir: "counter", importPath: "test/atomicmix/counter"},
		{subdir: "use", importPath: "test/atomicmix/use"},
	})
}

func TestCancelflowTestdata(t *testing.T) {
	runTestdata(t, Cancelflow, "cancelflow", "test/cancelflow")
}

func TestErrdropTestdata(t *testing.T) {
	runTestdataProgram(t, Errdrop, "errdrop", []testdataPkg{
		{subdir: "dep", importPath: "test/errdrop/dep"},
		{subdir: "storage", importPath: "test/errdrop/internal/storage"},
	})
}

func TestWalorderTestdata(t *testing.T) {
	runTestdata(t, Walorder, "walorder", "test/internal/qql")
}

func TestExhaustiveTestdata(t *testing.T) {
	runTestdataProgram(t, Exhaustive, "exhaustive", []testdataPkg{
		{subdir: "colors", importPath: "test/exhaustive/colors"},
		{subdir: "use", importPath: "test/exhaustive/use"},
	})
}

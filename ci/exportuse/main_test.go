package main

import (
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture is two modules shaped like the repository: testdata/mod and
// testdata/mod/second, which reaches the first's internal/ through a
// replace directive as bench/ does.
var fixture struct {
	once sync.Once
	r    *report
	err  error
}

func scanFixture(t *testing.T) *report {
	t.Helper()
	fixture.once.Do(func() {
		fixture.r, fixture.err = scan(filepath.Join("testdata", "mod"), "second", lib+"Config")
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.r
}

const lib = "fixture/internal/lib."

func TestScanFlagsExactlyTheCallerless(t *testing.T) {
	r := scanFixture(t)
	unused, declared := r.unused, r.declared
	want := []string{
		lib + "Lonely",     // named only inside its own method
		lib + "TestedOnly", // called from a _test.go file alone
		lib + "Unused",     // called from nowhere
	}
	if !reflect.DeepEqual(unused, want) {
		t.Fatalf("flagged %q, want %q", unused, want)
	}
	for _, name := range []string{
		lib + "Lonely.String",  // satisfies fmt.Stringer
		lib + "Named.String",   // satisfies fmt.Stringer
		lib + "Impl.Do",        // a method of the module's Doer
		lib + "Wrapped.Unwrap", // asked for by a literal inside errors.Is
		lib + "FromSecond",     // called from the second module alone
	} {
		if !declared[name] {
			t.Errorf("%s not among the declared names", name)
		}
	}
}

// TestScanFlagsExactlyTheUnset: a setting written only by a test, by its
// package's Default*, Validate or withDefaults, or nowhere is listed; a
// selector assignment, nested or in a tuple, a composite-literal key and a
// taken address each count as a setter, a read does not, and nodes and
// unexported fields are not settings.
func TestScanFlagsExactlyTheUnset(t *testing.T) {
	r := scanFixture(t)
	want := []string{
		lib + "Config.DefaultOnly", // DefaultConfig's composite-literal key
		lib + "Config.Filled",      // withDefaults's assignment
		lib + "Config.ReadOnly",    // read by cmd/app, assigned in Validate
		lib + "Config.TestOnly",    // assigned in lib_test.go
	}
	if !reflect.DeepEqual(r.unset, want) {
		t.Fatalf("flagged %q, want %q", r.unset, want)
	}
	settings := []string{
		lib + "Config.Addressed", lib + "Config.DefaultOnly", lib + "Config.Filled",
		lib + "Config.Keyed", lib + "Config.ReadOnly", lib + "Config.TestOnly",
		lib + "Config.TupleA", lib + "Config.TupleB", lib + "Config.Written",
		lib + "Inner.Deep",
	}
	var got []string
	for name := range r.settings {
		got = append(got, name)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, settings) {
		t.Fatalf("settings %q, want %q", got, settings)
	}
}

func TestCheckAllowlist(t *testing.T) {
	r := scanFixture(t)
	full := map[string]string{
		lib + "Lonely":             "reason",
		lib + "TestedOnly":         "reason",
		lib + "Unused":             "reason",
		lib + "Config.DefaultOnly": "reason",
		lib + "Config.Filled":      "reason",
		lib + "Config.ReadOnly":    "reason",
		lib + "Config.TestOnly":    "reason",
	}
	if problems := check(r, full); len(problems) != 0 {
		t.Fatalf("a complete allowlist fails: %q", problems)
	}

	t.Run("Unlisted", func(t *testing.T) {
		allow := maps.Clone(full)
		delete(allow, lib+"Unused")
		delete(allow, lib+"Config.TestOnly")
		problems := check(r, allow)
		if len(problems) != 2 || !strings.HasPrefix(problems[0], lib+"Unused: no non-test caller") ||
			!strings.HasPrefix(problems[1], lib+"Config.TestOnly: a setting no non-test file sets") {
			t.Fatalf("problems = %q, want one for Unused and one for Config.TestOnly", problems)
		}
	})

	t.Run("Stale", func(t *testing.T) {
		allow := maps.Clone(full)
		allow[lib+"FromSecond"] = "reason"
		allow[lib+"Gone"] = "reason"
		allow[lib+"Config.Written"] = "reason"
		problems := check(r, allow)
		want := []string{
			lib + "Config.Written: allowlisted but has a non-test setter now; drop its line",
			lib + "FromSecond: allowlisted but has a non-test caller now; drop its line",
			lib + "Gone: allowlisted but no longer declared under internal/; drop its line",
		}
		if !reflect.DeepEqual(problems, want) {
			t.Fatalf("problems = %q, want %q", problems, want)
		}
	})
}

func TestReadAllow(t *testing.T) {
	write := func(text string) string {
		path := filepath.Join(t.TempDir(), "allow.txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	allow, err := readAllow(write("# comment\n\na.B test hook: TestB calls it\n"))
	if err != nil || !reflect.DeepEqual(allow, map[string]string{"a.B": "test hook: TestB calls it"}) {
		t.Fatalf("readAllow = %v, %v", allow, err)
	}
	if _, err := readAllow(write("a.B\n")); err == nil {
		t.Error("a line without a reason was accepted")
	}
	if _, err := readAllow(write("a.B one\na.B two\n")); err == nil {
		t.Error("a name listed twice was accepted")
	}
}

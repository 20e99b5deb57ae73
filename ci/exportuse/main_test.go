package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// The fixture is two modules shaped like the repository: testdata/mod and
// testdata/mod/second, which reaches the first's internal/ through a
// replace directive as bench/ does.
var fixture struct {
	once     sync.Once
	unused   []string
	declared map[string]bool
	err      error
}

func scanFixture(t *testing.T) ([]string, map[string]bool) {
	t.Helper()
	fixture.once.Do(func() {
		fixture.unused, fixture.declared, fixture.err = scan(filepath.Join("testdata", "mod"), "second")
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.unused, fixture.declared
}

const lib = "fixture/internal/lib."

func TestScanFlagsExactlyTheCallerless(t *testing.T) {
	unused, declared := scanFixture(t)
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

func TestCheckAllowlist(t *testing.T) {
	unused, declared := scanFixture(t)
	full := map[string]string{
		lib + "Lonely":     "reason",
		lib + "TestedOnly": "reason",
		lib + "Unused":     "reason",
	}
	if problems := check(unused, declared, full); len(problems) != 0 {
		t.Fatalf("a complete allowlist fails: %q", problems)
	}

	t.Run("Unlisted", func(t *testing.T) {
		allow := map[string]string{lib + "Lonely": "reason", lib + "TestedOnly": "reason"}
		problems := check(unused, declared, allow)
		if len(problems) != 1 || !strings.HasPrefix(problems[0], lib+"Unused: no non-test caller") {
			t.Fatalf("problems = %q, want one for Unused", problems)
		}
	})

	t.Run("Stale", func(t *testing.T) {
		allow := map[string]string{lib + "FromSecond": "reason", lib + "Gone": "reason"}
		for name, reason := range full {
			allow[name] = reason
		}
		problems := check(unused, declared, allow)
		want := []string{
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

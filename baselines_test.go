package corep_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"corep/internal/bench"
	"corep/internal/harness"
)

// TestBaselinesMatchRegistry ties the checked-in BENCH_*.json files to
// harness.Sweeps in both directions: every file is a stamped envelope of
// a registered sweep under that sweep's name, every registered sweep has
// its file, and — inside a checkout — every stamp names a commit this
// tree descends from, so bench-trend never compares against numbers from
// an unknown or abandoned revision.
func TestBaselinesMatchRegistry(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	// Ancestry needs git and the history: a shallow clone (CI's default
	// checkout) cannot answer, bench-trend's full one can.
	shallow, err := exec.Command("git", "rev-parse", "--is-shallow-repository").Output()
	inCheckout := err == nil && strings.TrimSpace(string(shallow)) == "false"
	if !inCheckout {
		t.Log("no git, no checkout or a shallow one: ancestry of the stamped revisions not checked")
	}
	fullRev := regexp.MustCompile(`^[0-9a-f]{40}$`)
	have := map[string]bool{}
	for _, file := range files {
		name := strings.TrimSuffix(strings.TrimPrefix(file, "BENCH_"), ".json")
		have[name] = true
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		env, err := bench.Read(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		if _, ok := harness.FindSweep(name); !ok || env.Kind != name {
			t.Errorf("%s: kind %q; want the file, the kind and a registered sweep to share one name", file, env.Kind)
		}
		if !fullRev.MatchString(env.GitRev) || env.GoVersion == "" || env.MaxProcs == 0 {
			t.Errorf("%s: unstamped (git_rev %q, go_version %q, gomaxprocs %d): regenerate with corepbench -sweep %s",
				file, env.GitRev, env.GoVersion, env.MaxProcs, name)
			continue
		}
		if len(env.Cells) == 0 {
			t.Errorf("%s: no cells", file)
		}
		if inCheckout {
			if out, err := exec.Command("git", "merge-base", "--is-ancestor", env.GitRev, "HEAD").CombinedOutput(); err != nil {
				t.Errorf("%s: git_rev %s is not an ancestor of HEAD (%v %s): regenerate it", file, env.GitRev, err, out)
			}
		}
	}
	for _, s := range harness.Sweeps {
		if !have[s.Name] {
			t.Errorf("sweep %s has no BENCH_%s.json: generate it with corepbench -sweep %s", s.Name, s.Name, s.Name)
		}
	}
}

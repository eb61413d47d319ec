package microslip_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// mains lists every buildable entry point in the repository.
var mains = []string{
	"./cmd/benchtables",
	"./cmd/clustersim",
	"./cmd/slipd",
	"./cmd/slipsim",
	"./examples/groovedwall",
	"./examples/liveremap",
	"./examples/nondedicated",
	"./examples/poiseuille",
	"./examples/quickstart",
	"./examples/slipchannel",
}

func goTool(t *testing.T) string {
	t.Helper()
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		var lookErr error
		gobin, lookErr = exec.LookPath("go")
		if lookErr != nil {
			t.Skipf("go tool unavailable: %v", lookErr)
		}
	}
	return gobin
}

// Every cmd/ and examples/ main must build.
func TestMainsBuild(t *testing.T) {
	gobin := goTool(t)
	bin := t.TempDir()
	for _, dir := range mains {
		dir := dir
		t.Run(strings.TrimPrefix(dir, "./"), func(t *testing.T) {
			t.Parallel()
			out := filepath.Join(bin, filepath.Base(dir))
			cmd := exec.Command(gobin, "build", "-o", out, dir)
			cmd.Dir = "."
			if msg, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("build %s: %v\n%s", dir, err, msg)
			}
		})
	}
}

// The quickstart must run end to end on a tiny grid and print the
// headline physics numbers.
func TestQuickstartRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a physics simulation")
	}
	gobin := goTool(t)
	bin := filepath.Join(t.TempDir(), "quickstart")
	build := exec.Command(gobin, "build", "-o", bin, "./examples/quickstart")
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build quickstart: %v\n%s", err, msg)
	}
	run := exec.Command(bin, "-nx", "6", "-ny", "24", "-nz", "6", "-steps", "200")
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("quickstart run: %v\n%s", err, out)
	}
	for _, frag := range []string{
		"water density at the wall",
		"apparent slip",
		"free-stream velocity",
	} {
		if !strings.Contains(string(out), frag) {
			t.Errorf("quickstart output lacks %q:\n%s", frag, out)
		}
	}
}

package apollo

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchModuleVets type-checks the nested benchmark module in bench/,
// which `go build ./...` and `go test ./...` at the root never compile, so
// removing or renaming an internal name it calls fails here rather than at
// the next benchmark run. go vet leaves nothing behind in bench/.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a second module")
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}

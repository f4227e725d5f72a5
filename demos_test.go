package repro

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// demoRow is one run of a cmd/ or examples/ binary and the claims its
// output must make.
type demoRow struct {
	bin    string
	args   []string
	exit   int
	want   []string // regexps that must match the combined output
	absent []string // regexps that must not match it
	// check states a claim that spans lines a regexp cannot tie
	// together; nil for most rows.
	check func(out string) error
}

// usage is rbdctl's usage line, printed with exit 2 for any verb it does
// not run.
const usage = `(?m)^usage: rbdctl \[-scheme S\] \[-layout L\] \[-size MB\] scrub\|top\|health\|slow\|events$`

var demoRows = []demoRow{
	// rbdctl: the walkers and the health plane.
	{bin: "rbdctl", args: []string{"-scheme", "gcm-auth", "-layout", "object-end", "-size", "24", "scrub"}, want: []string{
		`scrub complete: \d+ blocks checked, 3 bad, 3 repaired from replicas`,
		`(?m)^post-scrub read-back: full span reads clean$`,
	}},
	{bin: "rbdctl", args: []string{"-size", "16", "top"}, want: []string{
		`(?:\nframe [1-5]  t=\S+  window=\S+\n  osd .*\n(?:  \d+ .*\n){3,}  health: \w+ .*\n){5}`,
	}},
	{bin: "rbdctl", args: []string{"-size", "16", "health"}, want: []string{
		`under chaos .*:\nhealth: (degraded|critical) `,
		`(?s)under chaos.*\n  fault-injection-rate +(degraded|critical) .*after recovery`,
		`after recovery:\nhealth: healthy `,
	}},
	{bin: "rbdctl", args: []string{"-size", "16", "slow"}, want: []string{
		`(?m)^spiking osd\d+:`,
		`(?m)^slow ops captured: [1-9]`,
	}, check: func(out string) error {
		m := regexp.MustCompile(`spiking (osd\d+):`).FindStringSubmatch(out)
		if m == nil || !strings.Contains(out, "straggler="+m[1]+"\n") {
			return errors.New("no captured slow op names the spiked OSD as its straggler")
		}
		return nil
	}},
	{bin: "rbdctl", args: []string{"-size", "16", "events"}, want: []string{
		`(?m)^ +\d+ rekey-start +`,
		`(?m)^ +\d+ rekey-finish +`,
		`(?m)^ +\d+ epoch-retire +`,
		`(?m)^ +\d+ fault-fired +`,
		`(?m)^ +\d+ scrub-finish +`,
	}},
	// The verbs whose scenarios live in examples/ and fiosim.
	{bin: "rbdctl", args: []string{"demo"}, exit: 2, want: []string{usage}},
	{bin: "rbdctl", args: []string{"rekey"}, exit: 2, want: []string{usage}},
	{bin: "rbdctl", args: []string{"discard"}, exit: 2, want: []string{usage}},
	{bin: "rbdctl", args: []string{"clone"}, exit: 2, want: []string{usage}},
	{bin: "rbdctl", args: []string{"flatten"}, exit: 2, want: []string{usage}},
	{bin: "rbdctl", args: []string{"status"}, exit: 2, want: []string{usage}},

	// fiosim: correct-or-loud under chaos, the SLO verdict table, and
	// tail-latency attribution.
	{bin: "fiosim", args: []string{"-rw", "randwrite", "-bs", "4", "-qd", "8", "-ops", "500", "-image", "64", "-scheme", "xts-rand", "-chaos-seed", "3"},
		want: []string{`(?m)^chaos verification: .* garbage=0$`}, absent: []string{`SILENT GARBAGE`}},
	{bin: "fiosim", args: []string{"-rw", "randread", "-bs", "4", "-qd", "8", "-ops", "500", "-image", "64", "-scheme", "gcm-auth", "-chaos-seed", "7"},
		want: []string{`(?m)^chaos verification: .* reads=500 .* garbage=0$`}, absent: []string{`SILENT GARBAGE`}},
	{bin: "fiosim", args: []string{"-rw", "randwrite", "-bs", "4", "-qd", "8", "-ops", "500", "-image", "64", "-chaos-seed", "7", "-health"}, want: []string{
		`(?m)^health: (healthy|degraded|critical) \(t=\d+\)$`,
		`(?m)^  fault-injection-rate +(degraded|critical) +value=`,
		`(?m)^  client-error-rate +\w+ +value=`,
	}},
	{bin: "fiosim", args: []string{"-rw", "randwrite", "-bs", "4", "-qd", "8", "-ops", "500", "-image", "64", "-attr", "-trace-every", "32", "-slow-thresh", "5ms"}, want: []string{
		`(?m)^latency attribution \(100% of traffic\):\nread: .*\n(?:  .*\n)*write: [1-9]\d* ops`,
		`(?m)^slow ops \(>= 5ms\), newest first:\nwrite \S+ \S+ dominant=\w+ straggler=osd\d+$`,
	}},

	// The CI gate tooling.
	{bin: "benchgate", args: []string{"-base", "testdata/benchgate/base.txt", "-head", "testdata/benchgate/slower.txt"}, exit: 1, want: []string{
		`(?m)^FAIL BenchmarkDatapathSeal/4KiB +time 10000 -> 12000 ns/op`,
		`(?m)^ok   BenchmarkDatapathOpen/4KiB `,
	}},
	{bin: "benchgate", args: []string{"-base", "testdata/benchgate/base.txt", "-head", "testdata/benchgate/allocs.txt"}, exit: 1, want: []string{
		`(?m)^FAIL BenchmarkDatapathOpen/4KiB +allocs 2.0 -> 3.0 /op$`,
		`(?m)^ok   BenchmarkDatapathSeal/4KiB `,
	}},
	{bin: "benchgate", args: []string{"-base", "testdata/benchgate/base.txt", "-head", "testdata/benchgate/base.txt"},
		want: []string{`(?m)^benchgate: no regressions$`}, absent: []string{`(?m)^FAIL `}},
	{bin: "benchgate", args: []string{"-base", "testdata/benchgate/missing.txt", "-head", "testdata/benchgate/base.txt"}, want: []string{
		`(?m)^new  BenchmarkDatapathOpen/4KiB `,
		`(?m)^new  BenchmarkDatapathSeal/4KiB `,
		`(?m)^benchgate: no regressions$`,
	}, absent: []string{`(?m)^(ok|FAIL|gone) `}},
	{bin: "benchgate", args: []string{"-base", "testdata/benchgate/base.txt", "-head", "testdata/benchgate/removed.txt"}, want: []string{
		`(?m)^gone BenchmarkDatapathOpen/4KiB `,
		`(?m)^ok   BenchmarkDatapathSeal/4KiB `,
		`(?m)^benchgate: no regressions$`,
	}, absent: []string{`(?m)^(new|FAIL) `}},
	// §3.3's sector counts: a 4 KiB IO under unaligned/object-end reads 2.
	{bin: "benchfig", args: []string{"-fig", "sectors"}, want: []string{
		`(?m)^ +4 KiB +1 +2 +2 +1$`,
		`(?m)^ +32 KiB +8 +9 +9 +8$`,
	}},

	// examples/: each of the paper's claims it makes runnable.
	{bin: "quickstart", want: []string{
		`(?m)^round trip ok: true$`,
		`(?m)^head sees generation-2: true$`,
		`(?m)^snapshot still decrypts generation-1 .*: true$`,
		`(?m)^wrong passphrase rejected: `,
	}},
	{bin: "integrity", want: []string{
		`--- XTS .* ---\nread SUCCEEDED with silently corrupted data`,
		`--- GCM .* ---\nread failed closed: `,
	}},
	{bin: "snapshotforensics", want: []string{
		`--- LUKS2 .* ---\nattacker sees: exactly sub-block`,
		`--- Paper's scheme.* ---\nattacker sees: 256/256 sub-blocks changed .*\nsplice attack: splice decrypts to garbage`,
		`--- Authenticated.* ---\nattacker sees: 256/256 .*\nsplice attack: detected and rejected`,
	}},
	{bin: "rekey", want: []string{
		`(?m)^secret record intact under the new key$`,
		`(?m)^secret record crypto-erased: reads as a hole`,
		`(?m)^no rotation in progress — lifecycle complete$`,
	}},
	{bin: "goldenimage", want: []string{
		`own blocks read -> .*destroyed key epoch`,
		`(?m)^base deleted; tenant-b stands alone: `,
	}},
}

// TestDemos builds every cmd/ and examples/ main once and runs each row
// of demoRows as its own process, so no process-wide telemetry state
// (registry, attribution histograms, event journal, slow-span ring)
// carries from one row into the next. vetrepo has no row: its own CI
// job runs it over the tree.
func TestDemos(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to build the demos: %v", err)
	}
	var pkgs []string
	covered := map[string]bool{}
	for _, r := range demoRows {
		covered[r.bin] = true
	}
	for _, dir := range []string{"cmd", "examples"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if !e.IsDir() || e.Name() == "vetrepo" {
				continue
			}
			if !covered[e.Name()] {
				t.Errorf("%s/%s has no row in demoRows", dir, e.Name())
			}
			pkgs = append(pkgs, "./"+dir+"/"+e.Name())
		}
	}
	// The go command caches a pass by the files this process opens, not
	// by what the build and the rows read: stat every non-standard
	// source file the binaries compile, and the benchgate fixtures, so
	// an edit to any of them reruns the test.
	list, err := exec.Command(goTool, append([]string{"list", "-deps", "-f",
		`{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}` + "\n" + `{{end}}{{end}}`}, pkgs...)...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fixtures, err := filepath.Glob("testdata/benchgate/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(strings.Split(strings.TrimSpace(string(list)), "\n"), fixtures...) {
		if _, err := os.Stat(f); err != nil {
			t.Fatal(err)
		}
	}
	bin := t.TempDir()
	build := exec.Command(goTool, append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, r := range demoRows {
		t.Run(strings.Join(append([]string{r.bin}, r.args...), " "), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command(filepath.Join(bin, r.bin), r.args...).CombinedOutput()
			code := 0
			var exitErr *exec.ExitError
			if errors.As(err, &exitErr) {
				code = exitErr.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != r.exit {
				t.Errorf("exit %d, want %d", code, r.exit)
			}
			for _, re := range r.want {
				if !regexp.MustCompile(re).Match(out) {
					t.Errorf("output does not match %q", re)
				}
			}
			for _, re := range r.absent {
				if regexp.MustCompile(re).Match(out) {
					t.Errorf("output matches %q", re)
				}
			}
			if r.check != nil {
				if err := r.check(string(out)); err != nil {
					t.Error(err)
				}
			}
			if t.Failed() {
				t.Logf("%s %s output:\n%s", r.bin, strings.Join(r.args, " "), out)
			}
		})
	}
}

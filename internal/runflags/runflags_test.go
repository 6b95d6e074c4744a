package runflags

import (
	"flag"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func newSet(d Defaults) (*flag.FlagSet, *Flags) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, Register(fs, "test", d)
}

var (
	trainDefaults  = Defaults{Policy: "32bit", Epochs: 12, TrainSamples: 768, TestSamples: 384}
	workerDefaults = Defaults{Epochs: 4, TrainSamples: 384, TestSamples: 192}
)

// TestForwardRoundTrips: a forked rank parsing Forward's argv — with
// its own, different defaults — ends up with the parent's value of
// every forwarded flag, and exactly the three per-process flags are
// left off.
func TestForwardRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
	}{
		{"defaults", nil},
		{"everything set", []string{
			"-task", "sequence", "-policy", "qsgd4b512;minfrac=0.95;*.b=32bit",
			"-epochs", "3", "-batch", "24", "-lr", "0.0123456789", "-seed", "18446744073709551615",
			"-train-samples", "96", "-test-samples", "48",
			"-save", "out.ckpt", "-load", "in.ckpt",
			"-heartbeat", "50ms", "-heartbeat-timeout", "1.5s", "-step-deadline", "2m",
			"-rejoin-window", "30s", "-max-rejoins", "-1",
			"-metrics-addr", "127.0.0.1:9090", "-trace-out", "trace.jsonl", "-telemetry-every", "10",
		}},
		{"empty strings and zeros", []string{"-policy", "", "-heartbeat", "0", "-load", ""}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parentFS, parent := newSet(trainDefaults)
			if err := parentFS.Parse(tc.argv); err != nil {
				t.Fatal(err)
			}
			argv := parent.Forward()
			childFS, _ := newSet(workerDefaults)
			if err := childFS.Parse(argv); err != nil {
				t.Fatalf("forked rank cannot parse %q: %v", argv, err)
			}
			forwarded := make(map[string]bool)
			for _, a := range argv {
				name, _, _ := strings.Cut(strings.TrimPrefix(a, "-"), "=")
				forwarded[name] = true
			}
			var missing []string
			parentFS.VisitAll(func(f *flag.Flag) {
				if !forwarded[f.Name] {
					missing = append(missing, f.Name)
					return
				}
				if got := childFS.Lookup(f.Name).Value.String(); got != f.Value.String() {
					t.Errorf("-%s: forked rank parsed %q, parent has %q", f.Name, got, f.Value.String())
				}
			})
			sort.Strings(missing)
			if want := []string{"metrics-addr", "save", "trace-out"}; !reflect.DeepEqual(missing, want) {
				t.Fatalf("flags left off the forwarded argv: %v, want exactly %v", missing, want)
			}
		})
	}
}

// TestForwardSkipsCommandFlags: flags the command registers itself,
// before or after the shared set, are its own to forward.
func TestForwardSkipsCommandFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.Int("workers", 4, "")
	f := Register(fs, "test", trainDefaults)
	fs.Int("cluster", 0, "")
	if err := fs.Parse([]string{"-workers", "2", "-cluster", "3"}); err != nil {
		t.Fatal(err)
	}
	for _, a := range f.Forward() {
		if strings.HasPrefix(a, "-cluster") || strings.HasPrefix(a, "-workers") {
			t.Fatalf("forwarded a command-specific flag: %q", a)
		}
	}
}

func TestRegisterKeepsCommandDefaults(t *testing.T) {
	_, train := newSet(trainDefaults)
	_, worker := newSet(workerDefaults)
	if train.Policy != "32bit" || train.Epochs != 12 || train.TrainSamples != 768 || train.TestSamples != 384 {
		t.Fatalf("train defaults: %+v", train)
	}
	if worker.Policy != "" || worker.Epochs != 4 || worker.TrainSamples != 384 || worker.TestSamples != 192 {
		t.Fatalf("worker defaults: %+v", worker)
	}
}

func TestValidateNamesTheNegativeFlag(t *testing.T) {
	for _, name := range []string{"heartbeat", "heartbeat-timeout", "step-deadline", "rejoin-window", "telemetry-every"} {
		fs, f := newSet(workerDefaults)
		value := "-1s"
		if name == "telemetry-every" {
			value = "-1"
		}
		if err := fs.Parse([]string{"-" + name, value}); err != nil {
			t.Fatal(err)
		}
		err := f.Validate()
		if err == nil || !strings.Contains(err.Error(), "-"+name+" must not be negative") {
			t.Errorf("-%s %s: Validate returned %v", name, value, err)
		}
	}
	_, f := newSet(workerDefaults)
	if err := f.Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

// TestClusterConfigFromFlags: the health and elasticity flags land in
// the cluster.Config every command joins with — -heartbeat 0 turns the
// plane off and a positive -rejoin-window turns elasticity on.
func TestClusterConfigFromFlags(t *testing.T) {
	fs, f := newSet(workerDefaults)
	if err := fs.Parse([]string{"-heartbeat=0", "-rejoin-window=5s", "-max-rejoins=2"}); err != nil {
		t.Fatal(err)
	}
	cfg := f.ClusterConfig("127.0.0.1:7070", 1, 3, []string{"qsgd4b512"}, nil)
	if cfg.Addr != "127.0.0.1:7070" || cfg.Rank != 1 || cfg.World != 3 || !reflect.DeepEqual(cfg.Accept, []string{"qsgd4b512"}) {
		t.Fatalf("membership: %+v", cfg)
	}
	if !cfg.Health.Disable {
		t.Fatalf("-heartbeat 0 left the health plane on: %+v", cfg.Health)
	}
	if !cfg.Elastic.Enable || cfg.Elastic.RejoinWindow != 5*time.Second || cfg.Elastic.MaxRejoins != 2 {
		t.Fatalf("elastic: %+v", cfg.Elastic)
	}
	_, f = newSet(workerDefaults)
	if cfg := f.ClusterConfig("a", 0, 2, nil, nil); cfg.Health.Disable || cfg.Elastic.Enable {
		t.Fatalf("defaults: health %+v, elastic %+v", cfg.Health, cfg.Elastic)
	}
}

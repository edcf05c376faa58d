package netwire

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParseHosts(t *testing.T) {
	in := `
# rank 0 and 1 share a box, rank 2 has its own
10.0.0.1
10.0.0.1:7710

10.0.0.2   # trailing comment
`
	hosts, err := ParseHosts(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"10.0.0.1", "10.0.0.1:7710", "10.0.0.2"}
	if len(hosts) != len(want) {
		t.Fatalf("got %v, want %v", hosts, want)
	}
	for i := range want {
		if hosts[i] != want[i] {
			t.Fatalf("host %d: got %q, want %q", i, hosts[i], want[i])
		}
	}
}

func TestParseHostsRejects(t *testing.T) {
	for _, in := range []string{
		"",                    // no hosts at all
		"# only comments\n\n", // still no hosts
		"10.0.0.1 10.0.0.2",   // two hosts on one line
	} {
		if hosts, err := ParseHosts(strings.NewReader(in)); err == nil {
			t.Errorf("ParseHosts(%q) = %v, want error", in, hosts)
		}
	}
}

func TestLoadHosts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hosts")
	if err := os.WriteFile(path, []byte("127.0.0.1\n127.0.0.2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	hosts, err := LoadHosts(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 || hosts[0] != "127.0.0.1" || hosts[1] != "127.0.0.2" {
		t.Fatalf("got %v", hosts)
	}
	if _, err := LoadHosts(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("LoadHosts on a missing file succeeded")
	}
}

// FuzzParseHosts checks that every hosts file ParseHosts accepts, written
// back one host per line, parses to the same list.
func FuzzParseHosts(f *testing.F) {
	for _, in := range []string{
		"10.0.0.1\n10.0.0.1:7710\n\n10.0.0.2   # trailing comment\n",
		"# only comments\n\n", "10.0.0.1 10.0.0.2", "\t[::1]:7710\r\n127.0.0.2", "a\vb\n#\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		hosts, err := ParseHosts(strings.NewReader(in))
		if err != nil {
			return
		}
		out := strings.Join(hosts, "\n") + "\n"
		back, err := ParseHosts(strings.NewReader(out))
		if err != nil {
			t.Fatalf("ParseHosts(%q) = %q, whose rendering %q fails to parse: %v", in, hosts, out, err)
		}
		if !slices.Equal(hosts, back) {
			t.Fatalf("ParseHosts(%q) = %q, but its rendering %q parses to %q", in, hosts, out, back)
		}
	})
}

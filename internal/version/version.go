// Package version derives a build identity for the command-line tools
// from the information the Go toolchain embeds in every binary: the
// module version (when built from a tagged module zip) and the VCS
// revision and dirty bit (when built from a checkout). Every cmd/ binary
// registers the shared -version flag; fxnetd additionally surfaces the
// same string in its /healthz payload so a fleet's running revisions can
// be audited over HTTP.
package version

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// String renders the build identity: module version, VCS revision
// (shortened), dirty marker, and toolchain, e.g.
//
//	fxnet (devel) rev 1a2b3c4d5e6f (modified) go1.24.0
//
// A binary built without VCS stamping (go run, test binaries) degrades
// to whatever fields are present.
func String() string {
	var b strings.Builder
	b.WriteString("fxnet")
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		fmt.Fprintf(&b, " (no build info) %s", runtime.Version())
		return b.String()
	}
	if v := bi.Main.Version; v != "" {
		fmt.Fprintf(&b, " %s", v)
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = " (modified)"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(&b, " rev %s%s", rev, dirty)
	}
	fmt.Fprintf(&b, " %s", bi.GoVersion)
	return b.String()
}

// Register declares the shared -version flag on fs (a command's own
// set, or flag.CommandLine). Call ExitIfRequested with the returned
// pointer after parsing.
func Register(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print build version and exit")
}

// ExitIfRequested prints the build identity and exits 0 when the
// -version flag was given.
func ExitIfRequested(v *bool) {
	if v != nil && *v {
		fmt.Println(String())
		os.Exit(0)
	}
}

// Command fxcompile runs the mini-Fx compiler front end: it parses an
// HPF-like program, compiles each statement's communication for P
// processors, and prints the compile-time traffic characterization — the
// pattern, connection count, message sizes, and total bytes of every
// communication phase, before anything runs.
//
// Usage:
//
//	fxcompile -p 4 program.fx
//	echo 'array a(512,512) real*8 block(rows)
//	      array c(512,512) real*8 block(cols)
//	      assign c(i,j) = a(i,j)' | fxcompile -p 8
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"fxnet/internal/fxc"
	"fxnet/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fxcompile: ")
	p := flag.Int("p", 4, "processor count to compile for")
	ver := version.Register(flag.CommandLine)
	flag.Parse()
	version.ExitIfRequested(ver)

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		log.Fatal(err)
	}

	prog, err := fxc.ParseProgram(string(src))
	if err != nil {
		log.Fatal(err)
	}
	if len(prog.Stmts) == 0 {
		log.Fatal("no statements")
	}

	fmt.Printf("compiled for P=%d\n\n", *p)
	fmt.Printf("%-40s %-12s %6s %12s %12s\n", "statement", "pattern", "conns", "max msg (B)", "total (B)")
	scheds := prog.CompileAll(*p)
	for i, s := range scheds {
		pat, comm := s.Classify()
		patStr := "none (local)"
		if comm {
			patStr = pat.String()
		}
		fmt.Printf("%-40s %-12s %6d %12d %12d\n",
			prog.Texts[i], patStr, s.Connections(), s.MaxMessageBytes(), s.TotalBytes())
	}
}

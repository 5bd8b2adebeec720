// Command loccount reproduces Table 6: the size of each HerQules component
// in approximate lines of code, for this reproduction's components. Its last
// line is the raw non-test line count `make loc` tracks from PR to PR.
//
// Usage: loccount [repo-root]
package main

import (
	"fmt"
	"os"

	"herqules/internal/experiments"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	rep, err := experiments.Table6(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(rep.Format())
}

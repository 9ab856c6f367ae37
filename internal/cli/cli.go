// Package cli is the command-line plumbing the harness commands share:
// the exit-code convention, the flag groups several commands register
// (dimension overrides, run options, the output writer, the -baseline
// gate, progress telemetry, trace export), and flag validation. Each
// command registers only the groups it has; reports stay with the
// commands.
//
// Exit codes, for every command built on Main: 0 on success, 1 on a
// runtime or IO error, 2 on a usage error (including flag parse
// errors), 3 when a -baseline gate found a regression — so CI can tell
// "the scheduler model regressed" from "the invocation is broken".
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// Exit codes of Main.
const (
	ExitRuntime    = 1
	ExitUsage      = 2
	ExitRegression = 3
)

// ErrRegression is what a command returns when its -baseline gate found
// a regression. The command has printed its report already; Main exits
// 3 without another message.
var ErrRegression = errors.New("regression against the baseline")

// usageError is a bad invocation. An empty message means it was
// reported already (the flag package prints its own parse errors).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// Usagef returns a usage error: Main prints it and exits 2.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Sprintf(format, args...)}
}

// Cmd is one command invocation: its name, which prefixes every
// message, and its output streams.
type Cmd struct {
	Name           string
	Stdout, Stderr io.Writer
}

// Main runs a command on the process arguments and exits with the code
// Exit maps its error to.
func Main(name string, run func(c *Cmd, args []string) error) {
	c := &Cmd{Name: name, Stdout: os.Stdout, Stderr: os.Stderr}
	os.Exit(c.Exit(run(c, os.Args[1:])))
}

// Exit reports err on stderr and maps it to the exit code: 0 for nil
// (or -h), 2 for a usage error, 3 for ErrRegression, 1 otherwise.
func (c *Cmd) Exit(err error) int {
	var usage usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrRegression):
		return ExitRegression
	case errors.As(err, &usage):
		if usage.msg != "" {
			c.Logf("%s", c.trim(usage.msg))
		}
		return ExitUsage
	}
	c.Logf("%s", c.trim(err.Error()))
	return ExitRuntime
}

// trim drops a leading "<name>: ": library errors carry their package
// prefix, which repeats the command name for the campaign command.
func (c *Cmd) trim(msg string) string { return strings.TrimPrefix(msg, c.Name+": ") }

// Logf writes one "<name>: ..." line to stderr.
func (c *Cmd) Logf(format string, args ...any) {
	fmt.Fprintf(c.Stderr, "%s: %s\n", c.Name, fmt.Sprintf(format, args...))
}

// FlagSet returns an empty flag set for the command that reports to
// its stderr and leaves exiting to Main.
func (c *Cmd) FlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet(c.Name, flag.ContinueOnError)
	fs.SetOutput(c.Stderr)
	return fs
}

// nonNegative lists the numeric flags no command accepts a negative
// value for. Zero keeps the meaning each command gives it (a default,
// or no slack for -tolerance).
var nonNegative = []string{"horizon", "local-workers", "metrics-cadence-ms", "scale", "streak-k", "tolerance", "workers"}

// Parse parses args into fs. A parse error (already printed by the
// flag package) is a usage error, -h returns flag.ErrHelp, and a
// negative value on any nonNegative numeric flag is a usage error.
func (c *Cmd) Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{}
	}
	for _, name := range nonNegative {
		f := fs.Lookup(name)
		if f == nil {
			continue
		}
		var v float64
		switch x := f.Value.(flag.Getter).Get().(type) {
		case int:
			v = float64(x)
		case float64:
			v = x
		default:
			continue // campaignd's -workers is a URL list
		}
		if !(v >= 0) {
			return Usagef("-%s must be >= 0, got %s", name, f.Value)
		}
	}
	return nil
}

// NoArgs rejects positional arguments.
func NoArgs(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		return Usagef("unexpected arguments %q", fs.Args())
	}
	return nil
}

// WriteFile writes data to path, or to stdout when path is "-", and
// notes a file write on stderr.
func (c *Cmd) WriteFile(path string, data []byte) error {
	if path == "-" {
		_, err := c.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	c.Logf("wrote %s (%d bytes)", path, len(data))
	return nil
}

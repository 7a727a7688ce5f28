package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel maps the -log-level flag values to slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger builds the logger behind the binaries' -log-level and
// -log-format flags: format is "text" or "json".
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
}

// NopLogger returns a logger that discards everything; the runtimes'
// logger-resolution helpers use it so callers never have to nil-check.
func NopLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

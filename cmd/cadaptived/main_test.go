package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.opts.Addr != ":8344" || cfg.opts.CacheEntries != 512 || cfg.opts.CacheBytes != 64<<20 {
		t.Errorf("defaults: addr=%q entries=%d bytes=%d", cfg.opts.Addr, cfg.opts.CacheEntries, cfg.opts.CacheBytes)
	}
	if cfg.opts.CacheShards != 0 {
		t.Errorf("defaults: shards=%d, want 0 = auto", cfg.opts.CacheShards)
	}
	if cfg.drain != 2*time.Minute || cfg.opts.RunTimeout != 60*time.Second {
		t.Errorf("defaults: drain=%v timeout=%v", cfg.drain, cfg.opts.RunTimeout)
	}
}

func TestParseFlagsCacheOff(t *testing.T) {
	// Flag-level 0 means "caching disabled" and maps to the Options-level
	// negative opt-in (Options' zero value must keep meaning "default").
	cfg, err := parseFlags([]string{"-cache", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.opts.CacheEntries != -1 {
		t.Errorf("-cache 0 => CacheEntries %d, want -1", cfg.opts.CacheEntries)
	}
	if cfg, err = parseFlags([]string{"-cache-bytes", "0"}); err != nil {
		t.Fatal(err)
	} else if cfg.opts.CacheBytes != -1 {
		t.Errorf("-cache-bytes 0 => CacheBytes %d, want -1", cfg.opts.CacheBytes)
	}
}

func TestParseFlagsCacheKnobs(t *testing.T) {
	cfg, err := parseFlags([]string{"-cache-shards", "8"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.opts.CacheShards != 8 {
		t.Errorf("shards=%d", cfg.opts.CacheShards)
	}
}

func TestParseFlagsJobs(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.opts.JobsDir != "" || cfg.opts.MaxJobs != 8 || cfg.opts.JobRetries != 3 {
		t.Errorf("jobs defaults: dir=%q max=%d retries=%d, want \"\"/8/3",
			cfg.opts.JobsDir, cfg.opts.MaxJobs, cfg.opts.JobRetries)
	}
	cfg, err = parseFlags([]string{"-jobs-dir", "/var/lib/cadaptived", "-jobs-max", "2", "-job-retries", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.opts.JobsDir != "/var/lib/cadaptived" || cfg.opts.MaxJobs != 2 || cfg.opts.JobRetries != 5 {
		t.Errorf("jobs flags: dir=%q max=%d retries=%d", cfg.opts.JobsDir, cfg.opts.MaxJobs, cfg.opts.JobRetries)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-cache", "-1"}, "-cache"},
		{[]string{"-cache-bytes", "-1"}, "-cache-bytes"},
		{[]string{"-cache-shards", "-1"}, "-cache-shards"},
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-chaos-seed", "7"}, "without -chaos-spec"},
		{[]string{"-jobs-max", "0"}, "-jobs-max"},
		{[]string{"-job-retries", "0"}, "-job-retries"},
		{[]string{"stray"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		_, err := parseFlags(tc.args)
		if err == nil {
			t.Errorf("parseFlags(%v): accepted, want error", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%v): error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}

// TestParseFlagsRejectsRetiredCacheFlags: the cache's eviction-policy,
// TTL and stale-while-revalidate flags are gone, and an old command line
// that still sets one fails at startup, naming the flag, instead of
// running with a cache that behaves differently from what it asked for.
func TestParseFlagsRejectsRetiredCacheFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-policy", "lru"},
		{"-cache-ttl", "1h"},
		{"-cache-swr", "1m"},
	} {
		_, err := parseFlags(args)
		if err == nil {
			t.Errorf("parseFlags(%v): accepted, want error", args)
			continue
		}
		if !strings.Contains(err.Error(), args[0]) {
			t.Errorf("parseFlags(%v): error %q does not name %s", args, err, args[0])
		}
	}
}

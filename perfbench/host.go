package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host is the provenance block every run prints first.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the checkout's git commit, or "none" outside a git
	// work tree; Source is a digest of the Go sources, go.mod files and
	// testdata, which identifies the code either way.
	Commit   string `json:"commit"`
	Source   string `json:"source_sha256"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"campaign_workers"`
	// ScalingWorkers is the width campaign.scaling measures at.
	ScalingWorkers int  `json:"scaling_workers"`
	Traced         bool `json:"traced"`
}

func hostInfo(o options, workload string, traced bool) (*host, error) {
	src, err := sourceDigest(o.root)
	if err != nil {
		return nil, err
	}
	return &host{
		CPU:            cpuModel(),
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Go:             runtime.Version(),
		Commit:         gitCommit(o.root),
		Source:         src,
		Workload:       workload,
		Seed:           o.seed,
		Workers:        o.workers,
		ScalingWorkers: scalingWorkers(),
		Traced:         traced,
	}, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory under root, without
// running git.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes the path and content of every .go file, go.mod
// and testdata file under root, in walk order, skipping dot
// directories (.git, .bench_build).
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(rel, ".go") && d.Name() != "go.mod" && !strings.Contains(rel, "testdata"+string(filepath.Separator)) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

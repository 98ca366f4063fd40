//go:build !linux

package main

import "os/exec"

func fsType(string) string { return "unknown" }

func dieWithParent(*exec.Cmd) {}

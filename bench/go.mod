// The benchmark is a module of its own, nested in the engine's tree. Its
// import path sits under pioqo/, so the per-layer probes may import
// pioqo/internal/*; the engine module's ./... patterns do not see it.
module pioqo/bench

go 1.22

require pioqo v0.0.0

replace pioqo => ../

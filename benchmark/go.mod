module inlinered/benchmark

go 1.22

require inlinered v0.0.0

replace inlinered => ../

module tofumd/benchmark

go 1.22

require tofumd v0.0.0

replace tofumd => ../

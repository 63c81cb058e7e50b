#!/usr/bin/env bash
# The console-script forms that every CI job runs against the installed `tritshare`.
# A form whose report may find the channel disturbed accepts exit code 4; the CSV `share`
# refusal expects exit code 2. Run from any directory: bash .github/console-script-forms.sh
set -euo pipefail

tritshare share --agents 3 --seed 7
tritshare share --secret "1,0;0,0;0,0" --seed 3
tritshare share --agents 10 --designate 10 --seed 7
tritshare check-channel --rounds 10 --seed 1
tritshare check-channel --rounds 1000 --basis random --eve intercept-computational --seed 3 || test $? -eq 4
tritshare attack --model inside --trials 200 --seed 5
tritshare attack --model outside --trials 200 --format csv --seed 5
tritshare attack --model outside --trials 10000 --seed 4
tritshare attack --model outside --trials 1000000 --eve intercept-random --seed 3
tritshare attack --model inside --trials 200 --format csv --seed 5
tritshare attack --model inside --trials 200 --designate 1 --seed 5
tritshare attack --model inside --trials 200 --designate 2 --fake genuine --seed 5
tritshare attack --model inside --trials 200 --fake random --comparison single-copy --seed 5
tritshare attack --model inside --trials 10000 --seed 1
tritshare attack --model inside --trials 2305 --seed 6
tritshare share --seed 1 --format csv || test $? -eq 2
tritshare check-channel --rounds 200 --eve intercept-random --seed 5 || test $? -eq 4
tritshare check-channel --rounds 10000 --eve intercept-random --seed 2 || test $? -eq 4
tritshare check-channel --rounds 1000000 --eve intercept-random --seed 2 || test $? -eq 4
tritshare check-channel --rounds 200 --basis fourier --seed 5
tritshare check-channel --rounds 200 --basis computational --eve intercept-fourier --seed 5 || test $? -eq 4

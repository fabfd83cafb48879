#!/usr/bin/env bash
# Runs the tier-1 suite from the root of a checkout, its report kept in
# tier1.log, and fails when pytest fails or when a test is skipped for a
# reason that the extended regex in $ALLOWED_SKIPS does not match.
# Arguments are passed on to pytest, e.g. --capture=sys.
#
#   ALLOWED_SKIPS='licensed corpus not configured' bash .github/scripts/tier1.sh
#
# -e as well as pipefail, as GitHub's `shell: bash` runs a step, so a
# failed pytest ends the script with its status.
set -eo pipefail
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors -rs "$@" | tee tier1.log
unexpected=$(grep '^SKIPPED' tier1.log | grep -Ev "$ALLOWED_SKIPS" || true)
if [ -n "$unexpected" ]; then
  echo "unexpected skips:"
  echo "$unexpected"
  exit 1
fi

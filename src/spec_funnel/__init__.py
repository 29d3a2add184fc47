"""Speculative agentic routing with a heterogeneous batch-funnel simulator.

Tool-free queries are answered by a fast stateless draft model and accepted
or rejected by a logit-margin confidence gate; everything else runs the
slow stateful tool loop. The funnel scheduler turns the acceptance rate
into batch throughput, and the calibration toolkit picks the gate threshold
offline. Import each name from the module that defines it; the package
re-exports nothing.
"""

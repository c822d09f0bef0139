import os
import sys

# The workload tests drive the engine from the repository's sources.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

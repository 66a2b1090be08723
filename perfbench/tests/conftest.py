import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# the benchmark's modules import each other as top-level names, and the
# library is used from the checkout's sources
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

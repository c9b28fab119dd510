"""Deterministic simulator for a wireless IMU body-tracking stack.

Layers, bottom up:

- quatmath: unit-quaternion operations and angle extraction
- skeleton: bone tree, sensor placements, calibration, joint angles
- motion: trajectory synthesis, forward kinematics, sensor noise model
- radio: 2.4 GHz channel geometry, interference, collision arbitration
- protocol: polling master/slaves with channel hopping, connection-based baseline
- pipeline: CSV recording format, comparison metrics
- scenario/runner/cli: declarative experiment configs and the CLI
"""

__version__ = "0.1.0"

"""hnslint + scenario pass tests."""

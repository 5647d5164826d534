"""hnslint + sanitizer + scenario pass tests."""

import gc


def pytest_collection_finish(session):
    """What is alive once the suite is collected — imported modules, the
    collected items, hypothesis strategies — lives to the end of the run:
    keep it out of the full collections the tests trigger (a test that
    asserts a release still collects everything it made itself)."""
    gc.freeze()

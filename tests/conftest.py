import pytest

# the session every test runs in (tests that restart Ray restart it so)
RAY_INIT_KWARGS = dict(
    address="local",
    num_cpus=4,
    include_dashboard=False,
    ignore_reinit_error=True,
    logging_level="ERROR",
    log_to_driver=False,
)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(**RAY_INIT_KWARGS)
    yield
    ray.shutdown()

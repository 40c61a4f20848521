.PHONY: test acceptance install bench-smoke

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src python -m pytest -q

acceptance:
	PYTHONPATH=src python -m pytest tests/test_acceptance.py -v -s

bench-smoke:
	python -m pytest bench

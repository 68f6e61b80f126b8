"""Cold-start probe, run in a fresh interpreter by run.py.

Imports ``kerrcav.cli``, counts the ``scipy`` modules that import pulled in,
then parses every input file named in the manifest the way the CLI does.
Prints one JSON line with the count.  Usage:

    PYTHONPATH=src python3 perfbench/cold.py MANIFEST
"""

import json
import sys


def main(manifest_path):
    import kerrcav.cli  # noqa: F401  (the import is what is measured)

    scipy_modules = sum(1 for name in sys.modules
                        if name == "scipy" or name.startswith("scipy."))
    from kerrcav.fitting import load_fit_problem
    from kerrcav.stripline import load_profile
    from kerrcav.sweeps import load_config_file

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for path in manifest.get("sweep", []):
        load_config_file(path)
    for path in manifest.get("fit", []):
        with open(path, encoding="utf-8") as fh:
            load_fit_problem(json.load(fh)["fit"])
    for path in manifest.get("profile", []):
        load_profile(path)
    print(json.dumps({"scipy_modules_loaded": scipy_modules}))


if __name__ == "__main__":
    main(sys.argv[1])
